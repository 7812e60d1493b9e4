package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"mobicache"
)

// newResilientServer builds a test daemon with the resilience layer armed
// and returns both handles: the raw server for direct state control and
// the HTTP harness for requests.
func newResilientServer(t *testing.T, maxInflight int64, breakerFailures int) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer()
	srv.setMaxInflight(maxInflight)
	if breakerFailures > 0 {
		if err := srv.armBreaker(breakerFailures, 4); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func getHealth(t *testing.T, ts *httptest.Server, path string) (int, healthBody) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body healthBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestHealthzAlwaysOK(t *testing.T) {
	srv, ts := newResilientServer(t, 1, 2)
	code, body := getHealth(t, ts, "/healthz")
	if code != http.StatusOK || body.Status != "ok" {
		t.Fatalf("healthz = %d %+v, want 200 ok", code, body)
	}
	// Liveness is unconditional: still ok while draining.
	srv.startDraining()
	if code, body = getHealth(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while draining = %d %+v, want 200", code, body)
	}
}

// TestReadyzBreakerLadder walks readiness through the breaker's states:
// ready -> degraded after consecutive failure reports -> ready again once
// successes flow.
func TestReadyzBreakerLadder(t *testing.T) {
	_, ts := newResilientServer(t, 0, 3)
	if code, body := getHealth(t, ts, "/readyz"); code != http.StatusOK || body.Status != "ready" {
		t.Fatalf("fresh readyz = %d %+v, want 200 ready", code, body)
	}

	resp, body := post(t, ts, "/v1/catalog", catalogRequest{Sizes: []int64{1, 1, 1}})
	mustStatus(t, resp, http.StatusOK, body)
	// Three failed downloads trip the breaker.
	resp, body = post(t, ts, "/v1/failed", failedRequest{Objects: []mobicache.ObjectID{0, 1, 2}, Retries: 3})
	mustStatus(t, resp, http.StatusOK, body)
	code, health := getHealth(t, ts, "/readyz")
	if code != http.StatusOK || health.Status != "degraded" || health.Breaker != "open" {
		t.Fatalf("tripped readyz = %d %+v, want 200 degraded/open", code, health)
	}
	// /v1/status mirrors the breaker state for operators.
	resp, body = post(t, ts, "/v1/fetched", objectsRequest{}) // no-op, keeps clock still
	mustStatus(t, resp, http.StatusOK, body)
	var st statusResponse
	getJSON(t, ts, "/v1/status", &st)
	if st.Breaker != "open" {
		t.Fatalf("status breaker = %q, want open", st.Breaker)
	}

	// Four reported successes ride out the open window (armBreaker uses
	// OpenTicks 4): the first three land while the breaker is still
	// open and are ignored, the fourth arrives half-open and closes it.
	resp, body = post(t, ts, "/v1/fetched", objectsRequest{Objects: []mobicache.ObjectID{0, 1, 2, 0}})
	mustStatus(t, resp, http.StatusOK, body)
	if code, health := getHealth(t, ts, "/readyz"); code != http.StatusOK || health.Status != "ready" {
		t.Fatalf("recovered readyz = %d %+v, want 200 ready", code, health)
	}
	// A failure report arriving half-open re-trips instantly.
	resp, body = post(t, ts, "/v1/failed", failedRequest{Objects: []mobicache.ObjectID{0, 1, 2}})
	mustStatus(t, resp, http.StatusOK, body)
	resp, body = post(t, ts, "/v1/fetched", objectsRequest{Objects: []mobicache.ObjectID{0, 1, 2}})
	mustStatus(t, resp, http.StatusOK, body)
	resp, body = post(t, ts, "/v1/failed", failedRequest{Objects: []mobicache.ObjectID{0}})
	mustStatus(t, resp, http.StatusOK, body)
	if code, health := getHealth(t, ts, "/readyz"); health.Status != "degraded" || code != http.StatusOK {
		t.Fatalf("re-tripped readyz = %d %+v, want 200 degraded", code, health)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestSheddingUnderLoad holds one request in flight (a POST whose body
// never finishes arriving) and checks that with -max-inflight 1 the next
// request is refused with 503 and /readyz reports shedding, while
// /healthz and /metrics stay reachable.
func TestSheddingUnderLoad(t *testing.T) {
	_, ts := newResilientServer(t, 1, 0)

	pr, pw := io.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The handler blocks inside decode() until the pipe closes, so
		// the in-flight slot stays occupied.
		resp, err := http.Post(ts.URL+"/v1/catalog", "application/json", pr)
		if err == nil {
			resp.Body.Close()
		}
	}()
	if _, err := pw.Write([]byte(`{"sizes":[`)); err != nil {
		t.Fatal(err)
	}

	// Wait until the slot is visibly taken, then probe.
	for {
		if code, body := getHealth(t, ts, "/readyz"); code == http.StatusServiceUnavailable {
			if body.Status != "shedding" {
				t.Fatalf("readyz = %+v, want shedding", body)
			}
			break
		}
	}
	resp, body := post(t, ts, "/v1/catalog", catalogRequest{Sizes: []int64{1}})
	mustStatus(t, resp, http.StatusServiceUnavailable, body)
	if code, health := getHealth(t, ts, "/healthz"); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz under shedding = %d %+v, want 200 ok", code, health)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte("stationd_shed_requests_total 1")) {
		t.Fatalf("metrics under shedding = %d, want shed counter at 1:\n%s", mresp.StatusCode, raw)
	}

	// Release the held request; capacity returns.
	if _, err := pw.Write([]byte(`1]}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	wg.Wait()
	if code, health := getHealth(t, ts, "/readyz"); code != http.StatusOK || health.Status != "ready" {
		t.Fatalf("readyz after release = %d %+v, want 200 ready", code, health)
	}
}

// TestReadyzDraining pins the shutdown handshake: once draining starts,
// readiness flips to 503 "draining" so load balancers stop routing, while
// already-accepted work still completes.
func TestReadyzDraining(t *testing.T) {
	srv, ts := newResilientServer(t, 0, 0)
	srv.startDraining()
	code, body := getHealth(t, ts, "/readyz")
	if code != http.StatusServiceUnavailable || body.Status != "draining" {
		t.Fatalf("draining readyz = %d %+v, want 503 draining", code, body)
	}
	// Existing traffic is not cut off by the readiness flip itself.
	resp, raw := post(t, ts, "/v1/catalog", catalogRequest{Sizes: []int64{1}})
	mustStatus(t, resp, http.StatusOK, raw)
}
