package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// conn is one load-generator connection: an HTTP client whose transport
// keeps at most one connection open. Each worker owns one and sends
// nothing concurrently on it, so the benchmark never holds more
// connections than it has workers.
func conn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   10 * time.Second,
	}
}

// station is one running stationd process.
type station struct {
	url    string
	cmd    *exec.Cmd
	stderr bytes.Buffer // read only after exited is closed
	exited chan struct{}
}

// fleet is the set of stationd processes of one set-up.
type fleet []*station

// startFleet spawns n stationd processes on free loopback ports; args
// gives each station's flags from the fleet's URLs and its index. It
// returns once every station answers /healthz, polled through
// conns[i] for station i.
func startFleet(ctx context.Context, n int, conns []*http.Client, args func(urls []string, i int) []string) (fleet, error) {
	urls, err := freeURLs(n)
	if err != nil {
		return nil, err
	}
	f := make(fleet, 0, n)
	for i := range urls {
		addr := strings.TrimPrefix(urls[i], "http://")
		st := &station{url: urls[i], exited: make(chan struct{})}
		st.cmd = exec.Command(filepath.Join(buildDir, "stationd"), append([]string{"-addr", addr, "-drain-timeout", "1s"}, args(urls, i)...)...)
		st.cmd.Stderr = &st.stderr
		if err := st.cmd.Start(); err != nil {
			f.stop()
			return nil, fmt.Errorf("start stationd (run bench/run.sh, which builds it): %w", err)
		}
		go func() { _ = st.cmd.Wait(); close(st.exited) }() // the exit status is not needed; stderr is
		f = append(f, st)
	}
	for i, st := range f {
		if err := st.awaitHealthy(ctx, conns[i]); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// freeURLs reserves n loopback ports by listening on port 0 and closing
// the listeners just before the stations bind them.
func freeURLs(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	urls := make([]string, n)
	for i := range urls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		ls = append(ls, l)
		urls[i] = "http://" + l.Addr().String()
	}
	return urls, nil
}

func (st *station) awaitHealthy(ctx context.Context, c *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, err := c.Get(st.url + "/healthz"); err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-st.exited:
			return fmt.Errorf("stationd at %s exited during start-up: %s", st.url, st.stderr.String())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stationd at %s not healthy within 10s", st.url)
		}
	}
}

// stop terminates every station and waits for each to exit, killing
// one that has not drained within five seconds.
func (f fleet) stop() {
	for _, st := range f {
		_ = st.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process needs no signal
	}
	for _, st := range f {
		select {
		case <-st.exited:
		case <-time.After(5 * time.Second):
			_ = st.cmd.Process.Kill()
			<-st.exited
		}
	}
}

// drain reads and closes a response body so its connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// call sends one request and requires a 200. A non-nil out receives the
// decoded JSON body.
func call(c *http.Client, method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, url, err)
	}
	return nil
}

func post(c *http.Client, url string, body []byte, out any) error {
	return call(c, http.MethodPost, url, body, out)
}

func get(c *http.Client, url string, out any) error {
	return call(c, http.MethodGet, url, nil, out)
}

// scrape fetches and parses a station's /metrics.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseExposition(string(text))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only called on maps, slices and structs of plain JSON types, which always marshal
	}
	return b
}

// timedSetups runs setup n times and returns the last set-up's value
// with the median duration; every earlier value is released with
// release.
func timedSetups[T any](n int, setup func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < n-1 {
			release(v)
		}
		last = v
	}
	return last, median(secs), nil
}
