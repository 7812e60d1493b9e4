package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func mustStatus(t *testing.T, resp *http.Response, want int, body []byte) {
	t.Helper()
	if resp.StatusCode != want {
		t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, want, body)
	}
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer())
	t.Cleanup(ts.Close)
	return ts
}

func TestEndpointsRequireCatalog(t *testing.T) {
	ts := newTestServer(t)
	for _, path := range []string{"/v1/updates", "/v1/fetched", "/v1/failed", "/v1/select", "/v1/recommend"} {
		resp, body := post(t, ts, path, map[string]any{})
		mustStatus(t, resp, http.StatusConflict, body)
	}
	resp, err := http.Get(ts.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("state without catalog = %d", resp.StatusCode)
	}
}

func TestCatalogValidation(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts, "/v1/catalog", map[string]any{"sizes": []int64{}})
	mustStatus(t, resp, http.StatusBadRequest, body)
	resp, body = post(t, ts, "/v1/catalog", map[string]any{"bogus": 1})
	mustStatus(t, resp, http.StatusBadRequest, body)
	resp, body = post(t, ts, "/v1/catalog", map[string]any{"sizes": []int64{3, 1, 4}})
	mustStatus(t, resp, http.StatusOK, body)
}

func TestSelectFlow(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts, "/v1/catalog", map[string]any{"sizes": []int64{3, 1, 4}})
	mustStatus(t, resp, http.StatusOK, body)

	// Everything absent: a request forces a download.
	resp, body = post(t, ts, "/v1/select", map[string]any{
		"requests": []map[string]any{{"object": 1, "target": 1.0}},
		"budget":   5,
	})
	mustStatus(t, resp, http.StatusOK, body)
	var sel selectResponse
	if err := json.Unmarshal(body, &sel); err != nil {
		t.Fatal(err)
	}
	if len(sel.Download) != 1 || sel.Download[0] != 1 {
		t.Fatalf("download = %v, want [1]", sel.Download)
	}
	if sel.AverageScore != 1 {
		t.Fatalf("average score = %v", sel.AverageScore)
	}

	// Report the fetch; a repeat request is now served from cache.
	resp, body = post(t, ts, "/v1/fetched", map[string]any{"objects": []int{1}})
	mustStatus(t, resp, http.StatusOK, body)
	resp, body = post(t, ts, "/v1/select", map[string]any{
		"requests": []map[string]any{{"object": 1, "target": 1.0}},
		"budget":   5,
	})
	mustStatus(t, resp, http.StatusOK, body)
	if err := json.Unmarshal(body, &sel); err != nil {
		t.Fatal(err)
	}
	if len(sel.Download) != 0 || len(sel.FromCache) != 1 {
		t.Fatalf("fresh copy not served from cache: %+v", sel)
	}

	// Two master updates decay the copy; a strict client forces a refresh.
	resp, body = post(t, ts, "/v1/updates", map[string]any{"objects": []int{1}})
	mustStatus(t, resp, http.StatusOK, body)
	resp, body = post(t, ts, "/v1/updates", map[string]any{"objects": []int{1}})
	mustStatus(t, resp, http.StatusOK, body)
	resp, body = post(t, ts, "/v1/select", map[string]any{
		"requests": []map[string]any{{"object": 1, "target": 1.0}},
		"budget":   5,
	})
	mustStatus(t, resp, http.StatusOK, body)
	if err := json.Unmarshal(body, &sel); err != nil {
		t.Fatal(err)
	}
	if len(sel.Download) != 1 {
		t.Fatalf("stale copy not refreshed: %+v", sel)
	}
}

func TestSelectNegativeBudgetMeansUnlimited(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts, "/v1/catalog", map[string]any{"sizes": []int64{2, 2, 2}})
	resp, body := post(t, ts, "/v1/select", map[string]any{
		"requests": []map[string]any{
			{"object": 0, "target": 1.0},
			{"object": 1, "target": 1.0},
			{"object": 2, "target": 1.0},
		},
		"budget": -1,
	})
	mustStatus(t, resp, http.StatusOK, body)
	var sel selectResponse
	if err := json.Unmarshal(body, &sel); err != nil {
		t.Fatal(err)
	}
	if len(sel.Download) != 3 {
		t.Fatalf("unlimited budget downloaded %v", sel.Download)
	}
}

func TestUpdatesValidation(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts, "/v1/catalog", map[string]any{"sizes": []int64{1, 1}})
	resp, body := post(t, ts, "/v1/updates", map[string]any{"objects": []int{5}})
	mustStatus(t, resp, http.StatusBadRequest, body)
	resp, body = post(t, ts, "/v1/fetched", map[string]any{"objects": []int{-1}})
	mustStatus(t, resp, http.StatusBadRequest, body)
}

func TestRecommend(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts, "/v1/catalog", map[string]any{"sizes": []int64{2, 2, 2, 2}})
	post(t, ts, "/v1/fetched", map[string]any{"objects": []int{0, 1, 2, 3}})
	// Decay everything once.
	post(t, ts, "/v1/updates", map[string]any{"objects": []int{0, 1, 2, 3}})
	resp, body := post(t, ts, "/v1/recommend", map[string]any{
		"requests": []map[string]any{
			{"object": 0, "target": 1.0}, {"object": 1, "target": 1.0},
			{"object": 2, "target": 1.0}, {"object": 3, "target": 1.0},
		},
		"max_budget":      8,
		"fraction_of_max": 0.75,
	})
	mustStatus(t, resp, http.StatusOK, body)
	var rec recommendResponse
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Budget <= 0 || rec.Budget > 8 {
		t.Fatalf("recommended budget = %d", rec.Budget)
	}
	if rec.Efficiency < 0.75-1e-9 {
		t.Fatalf("efficiency = %v", rec.Efficiency)
	}
	if rec.MaxGain <= 0 {
		t.Fatalf("max gain = %v", rec.MaxGain)
	}
}

func TestStateReflectsMutations(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts, "/v1/catalog", map[string]any{"sizes": []int64{1, 1}})
	post(t, ts, "/v1/fetched", map[string]any{"objects": []int{0}})
	post(t, ts, "/v1/updates", map[string]any{"objects": []int{0}})
	resp, err := http.Get(ts.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st stateResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Objects != 2 {
		t.Fatalf("objects = %d", st.Objects)
	}
	if st.Recencies[0] != 0.5 || st.Recencies[1] != 0 {
		t.Fatalf("recencies = %v, want [0.5 0]", st.Recencies)
	}
}

func TestFailedAndStatus(t *testing.T) {
	ts := newTestServer(t)

	// Status works before a catalog.
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Objects != 0 || st.Solver != "dp" || st.Faults != (faultStats{}) {
		t.Fatalf("status before catalog = %+v", st)
	}

	post(t, ts, "/v1/catalog", map[string]any{"sizes": []int64{1, 1, 1}})
	// Object 0 has a (stale-able) copy; objects 1-2 were never fetched.
	post(t, ts, "/v1/fetched", map[string]any{"objects": []int{0}})
	post(t, ts, "/v1/updates", map[string]any{"objects": []int{0}})

	resp2, body := post(t, ts, "/v1/failed", map[string]any{"objects": []int{0, 1}, "retries": 3})
	mustStatus(t, resp2, http.StatusOK, body)
	var ack map[string]int
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack["failed"] != 2 || ack["stale_fallbacks"] != 1 {
		t.Fatalf("ack = %v, want 2 failed / 1 stale fallback", ack)
	}

	// Out-of-range object rejected, counters untouched by the bad call.
	resp2, body = post(t, ts, "/v1/failed", map[string]any{"objects": []int{9}})
	mustStatus(t, resp2, http.StatusBadRequest, body)

	resp, err = http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Faults != (faultStats{FailedDownloads: 2, Retries: 3, StaleFallbacks: 1}) {
		t.Fatalf("fault counters = %+v", st.Faults)
	}
	// A failed download must not refresh recency: object 0 stays at 0.5.
	var state stateResponse
	resp, err = http.Get(ts.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	if state.Recencies[0] != 0.5 {
		t.Fatalf("recency after failed download = %v, want 0.5", state.Recencies[0])
	}
}

func TestMalformedJSON(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts, "/v1/catalog", map[string]any{"sizes": []int64{1}})
	resp, err := http.Post(ts.URL+"/v1/select", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status = %d", resp.StatusCode)
	}
}
