package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"elba/internal/campaign"
	"elba/internal/core"
)

// testServer stands up the full service behind an httptest server at
// the reduced trial protocol.
func testServer(t *testing.T, workers int) (*httptest.Server, *campaign.Service) {
	t.Helper()
	svc := campaign.NewService(campaign.Config{
		Workers: workers,
		Options: core.Options{TimeScale: 0.1},
	})
	ts := httptest.NewServer(newMux(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, svc
}

func postSpec(t *testing.T, base, src string) campaign.Progress {
	t.Helper()
	resp, err := http.Post(base+"/campaigns", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s\n%s", resp.Status, body)
	}
	var p campaign.Progress
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatalf("submit response not progress JSON: %v\n%s", err, body)
	}
	return p
}

// waitDone polls the progress endpoint until the campaign is terminal.
func waitDone(t *testing.T, base, id string) campaign.Progress {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(base + "/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var p campaign.Progress
		err = json.NewDecoder(resp.Body).Decode(&p)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch p.Status {
		case campaign.StatusDone, campaign.StatusFailed, campaign.StatusCancelled:
			return p
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck at %+v", id, p)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestElbadSmokeRubbosBaselineCachesSecondRun is the CI smoke path:
// submit the shipped RUBBoS baseline twice over HTTP and require the
// second submission to be served (at least) 90% from the shared cache —
// here it is 100%, since the documents are identical — with results
// byte-identical both to the first run and to a direct in-process run.
func TestElbadSmokeRubbosBaselineCachesSecondRun(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "specs", "rubbos-baseline.tbl"))
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := testServer(t, 2)

	first := postSpec(t, ts.URL, string(src))
	p1 := waitDone(t, ts.URL, first.ID)
	if p1.Status != campaign.StatusDone {
		t.Fatalf("first run: %+v", p1)
	}
	if p1.CacheMisses == 0 {
		t.Fatalf("first run computed nothing: %+v", p1)
	}

	second := postSpec(t, ts.URL, string(src))
	p2 := waitDone(t, ts.URL, second.ID)
	if p2.Status != campaign.StatusDone {
		t.Fatalf("second run: %+v", p2)
	}
	total := p2.CacheHits + p2.CacheMisses
	if total == 0 || float64(p2.CacheHits)/float64(total) < 0.9 {
		t.Fatalf("second run served %d of %d trials from cache, want >= 90%%", p2.CacheHits, total)
	}

	code1, body1 := get(t, ts.URL+"/campaigns/"+first.ID+"/results")
	code2, body2 := get(t, ts.URL+"/campaigns/"+second.ID+"/results")
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("results: %d / %d", code1, code2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("replayed submission's results differ from the original")
	}

	// Byte-identity with a direct, uncached, in-process run: the service
	// and cache must be invisible in the stored bytes.
	direct, err := core.New(core.Options{TimeScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := direct.RunTBL(string(src)); err != nil {
		t.Fatal(err)
	}
	want, err := direct.Results().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body1, want) {
		t.Fatalf("service results differ from a direct run")
	}

	// The cache-stats endpoint reflects both submissions.
	code, body := get(t, ts.URL+"/cache/stats")
	if code != http.StatusOK {
		t.Fatalf("cache stats: %d", code)
	}
	var stats campaign.CacheStats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Hits != p1.CacheHits+p2.CacheHits || stats.Misses != p1.CacheMisses+p2.CacheMisses {
		t.Fatalf("cache stats %+v inconsistent with campaigns %+v / %+v", stats, p1, p2)
	}
}

// TestSubmitRejectsBadTBLWithPosition: an invalid upload answers 400
// with the parser's line:column position intact.
func TestSubmitRejectsBadTBLWithPosition(t *testing.T) {
	ts, _ := testServer(t, 1)
	resp, err := http.Post(ts.URL+"/campaigns", "text/plain",
		strings.NewReader("experiment \"bad\" {\n\tbenchmark rubis platform emulab;\n}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad TBL: %s", resp.Status)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "line 2") {
		t.Fatalf("error lost its position: %q", e.Error)
	}
}

// TestResultsGatedUntilDone: result endpoints answer 409 with live
// progress while the campaign runs, and unknown campaigns answer 404.
func TestResultsGatedUntilDone(t *testing.T) {
	ts, _ := testServer(t, 1)
	p := postSpec(t, ts.URL, `experiment "gate" {
		benchmark rubis; platform emulab; appserver jonas;
		workload { users 100 to 1000 step 100; writeratio 15; }
	}`)
	// Immediately after submission the campaign is queued or running.
	code, body := get(t, ts.URL+"/campaigns/"+p.ID+"/results")
	if code != http.StatusConflict {
		t.Fatalf("early results fetch: %d\n%s", code, body)
	}
	var prog campaign.Progress
	if err := json.Unmarshal(body, &prog); err != nil || prog.ID != p.ID {
		t.Fatalf("409 body should be progress: %v\n%s", err, body)
	}
	if got := waitDone(t, ts.URL, p.ID); got.Status != campaign.StatusDone {
		t.Fatalf("campaign: %+v", got)
	}
	for _, path := range []string{"/results", "/results.csv", "/report"} {
		if code, body := get(t, ts.URL+"/campaigns/"+p.ID+path); code != http.StatusOK || len(body) == 0 {
			t.Fatalf("%s after done: %d", path, code)
		}
	}
	if code, _ := get(t, ts.URL+"/campaigns/nope/results"); code != http.StatusNotFound {
		t.Fatalf("unknown campaign: %d", code)
	}
}

// TestCancelEndpointStopsCampaign cancels over HTTP mid-sweep and
// checks the campaign lands terminal as cancelled with a kept prefix.
func TestCancelEndpointStopsCampaign(t *testing.T) {
	ts, _ := testServer(t, 1)
	p := postSpec(t, ts.URL, `experiment "abort" {
		benchmark rubis; platform emulab; appserver jonas;
		workload { users 100 to 5000 step 100; writeratio 15; }
	}`)
	resp, err := http.Post(ts.URL+"/campaigns/"+p.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s", resp.Status)
	}
	final := waitDone(t, ts.URL, p.ID)
	if final.Status != campaign.StatusCancelled {
		t.Fatalf("campaign finished %s, want cancelled", final.Status)
	}
	if final.DoneTrials >= final.TotalTrials {
		t.Fatalf("cancelled campaign ran all %d trials", final.TotalTrials)
	}
	if code, _ := get(t, ts.URL+"/campaigns/"+p.ID+"/results"); code != http.StatusConflict {
		t.Fatalf("cancelled campaign's results should stay gated, got %d", code)
	}
	// The list endpoint reflects the terminal state.
	code, body := get(t, ts.URL+"/campaigns")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var all []campaign.Progress
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].Status != campaign.StatusCancelled {
		t.Fatalf("list = %+v", all)
	}
}

// TestSubmitAnswers503WhenQueueFull: with one worker and room for one
// queued campaign, at most two of three long submissions are accepted;
// the rejected one answers 503, the retry-later status.
func TestSubmitAnswers503WhenQueueFull(t *testing.T) {
	svc := campaign.NewService(campaign.Config{
		Workers:    1,
		QueueDepth: 1,
		Options:    core.Options{TimeScale: 0.1},
	})
	ts := httptest.NewServer(newMux(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	const long = `experiment "long" {
		benchmark rubis; platform emulab; appserver jonas;
		workload { users 100 to 5000 step 100; writeratio 15; }
	}`
	var full int
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/campaigns", "text/plain", strings.NewReader(long))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusServiceUnavailable:
			if !strings.Contains(string(body), "queue full") {
				t.Fatalf("503 body does not say why: %s", body)
			}
			full++
		default:
			t.Fatalf("submit %d: %s\n%s", i, resp.Status, body)
		}
	}
	if full == 0 {
		t.Fatal("three submissions to a one-slot queue were all accepted")
	}
}

// TestHealthz is the liveness probe.
func TestHealthz(t *testing.T) {
	ts, _ := testServer(t, 1)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}
}

// TestFlagValidation exercises the CLI's argument checking without
// binding a listener.
func TestFlagValidation(t *testing.T) {
	if err := run([]string{"-scaling", "warp"}); err == nil ||
		!strings.Contains(err.Error(), "-scaling") {
		t.Fatalf("bad -scaling accepted: %v", err)
	}
	if err := run([]string{"-faults", "apocalyptic", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("unknown fault profile accepted")
	}
	if err := run([]string{"-scalingthreshold", "-5", "-addr", "127.0.0.1:0"}); err == nil ||
		!strings.Contains(err.Error(), "-scalingthreshold") {
		t.Fatalf("negative -scalingthreshold accepted: %v", err)
	}
}

// TestServerSetsReadHeaderTimeout: the server elbad listens with bounds
// how long a client may take to send its headers.
func TestServerSetsReadHeaderTimeout(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Fatalf("server = %+v", srv)
	}
}
