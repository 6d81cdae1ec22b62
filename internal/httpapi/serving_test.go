package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lpmem"
	"lpmem/internal/resultstore"
	"lpmem/internal/runner"
	"lpmem/internal/testutil"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data []byte
}

// readSSE parses every event from an SSE body.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var (
		out []sseEvent
		cur sseEvent
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.name != "" || len(cur.data) > 0 {
				out = append(out, cur)
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = append(cur.data, strings.TrimPrefix(line, "data: ")...)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read SSE stream: %v", err)
	}
	return out
}

// TestAdmissionAcquireSemantics: the bounded queue admits up to capacity,
// queues up to the wait bound, sheds beyond it, and accounts clients that
// abandon their queue position.
func TestAdmissionAcquireSemantics(t *testing.T) {
	a := newAdmission(1, 1)
	rel1, err := a.acquire(context.Background())
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	// Second request queues; it must block until the slot frees.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	got2 := make(chan error, 1)
	go func() {
		rel, err := a.acquire(ctx2)
		if err == nil {
			rel()
		}
		got2 <- err
	}()
	waitFor(t, func() bool { return a.stats().QueueDepth == 1 })

	// Third request finds both the slot and the queue full: shed.
	if _, err := a.acquire(context.Background()); err != errShed {
		t.Fatalf("over-queue acquire: err = %v, want errShed", err)
	}

	// The queued request is admitted once the slot frees.
	rel1()
	if err := <-got2; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}

	// A queued client that disconnects is counted as abandoned.
	rel3, err := a.acquire(context.Background())
	if err != nil {
		t.Fatalf("reacquire: %v", err)
	}
	ctx4, cancel4 := context.WithCancel(context.Background())
	got4 := make(chan error, 1)
	go func() {
		_, err := a.acquire(ctx4)
		got4 <- err
	}()
	waitFor(t, func() bool { return a.stats().QueueDepth == 1 })
	cancel4()
	if err := <-got4; err != context.Canceled {
		t.Fatalf("abandoned acquire: err = %v", err)
	}
	rel3()

	st := a.stats()
	if st.Admitted != 3 || st.Shed != 1 || st.Abandoned != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Inflight != 0 || st.QueueDepth != 0 {
		t.Fatalf("stats not drained: %+v", st)
	}
	// Retry-After jitter stays within [base, 3*base].
	for i := 0; i < 64; i++ {
		if ra := a.retryAfter(); ra < 1 || ra > 3 {
			t.Fatalf("retryAfter = %d outside [1,3]", ra)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionShedsOverHTTP: concurrent requests beyond capacity+queue
// get 429 with a Retry-After header, and /metrics accounts every shed.
func TestAdmissionShedsOverHTTP(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := lpmem.NewEngine(runner.Options{Workers: 2})
	srv := New(eng, WithAdmission(1, 0), WithServiceDelay(300*time.Millisecond))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	const n = 4
	codes := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/experiments/E17")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	ok, shed := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			ra, err := strconv.Atoi(retryAfter[i])
			if err != nil || ra < 1 {
				t.Fatalf("shed response Retry-After = %q", retryAfter[i])
			}
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok < 1 || shed < 1 || ok+shed != n {
		t.Fatalf("ok=%d shed=%d of %d", ok, shed, n)
	}

	var m MetricsSnapshot
	get(t, ts.URL+"/metrics", &m)
	if m.Admission == nil {
		t.Fatal("metrics missing admission block")
	}
	if m.Admission.Capacity != 1 || m.Admission.QueueLimit != 0 {
		t.Fatalf("admission config: %+v", m.Admission)
	}
	if int(m.Admission.Shed) != shed || m.Admission.Admitted < uint64(ok) {
		t.Fatalf("admission counters: %+v (client saw ok=%d shed=%d)", m.Admission, ok, shed)
	}
}

// TestBatchStreamSSE: POST /run?stream=1 emits start, one result per
// experiment, and a summarising done event.
func TestBatchStreamSSE(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/run?ids=E16,E17&stream=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	if resp.Header.Get(requestIDHeader) == "" {
		t.Fatal("stream response missing request ID")
	}

	events := readSSE(t, resp.Body)
	if len(events) != 4 {
		t.Fatalf("got %d events, want start+2 results+done: %+v", len(events), events)
	}
	var start struct {
		Count int      `json:"count"`
		IDs   []string `json:"ids"`
	}
	if events[0].name != "start" {
		t.Fatalf("first event %q", events[0].name)
	}
	if err := json.Unmarshal(events[0].data, &start); err != nil || start.Count != 2 {
		t.Fatalf("start event: %v %+v", err, start)
	}
	seen := map[string]bool{}
	for _, ev := range events[1:3] {
		if ev.name != "result" {
			t.Fatalf("event %q, want result", ev.name)
		}
		var env lpmem.ResultJSON
		if err := json.Unmarshal(ev.data, &env); err != nil {
			t.Fatal(err)
		}
		if env.Error != "" || len(env.Rows) == 0 {
			t.Fatalf("result envelope: %+v", env)
		}
		seen[env.ID] = true
	}
	if !seen["E16"] || !seen["E17"] {
		t.Fatalf("results seen: %v", seen)
	}
	var done struct {
		Status string `json:"status"`
		Count  int    `json:"count"`
		Failed int    `json:"failed"`
	}
	if events[3].name != "done" {
		t.Fatalf("last event %q", events[3].name)
	}
	if err := json.Unmarshal(events[3].data, &done); err != nil || done.Status != "ok" || done.Count != 2 || done.Failed != 0 {
		t.Fatalf("done event: %v %+v", err, done)
	}
}

// TestBatchStreamDisconnectCancelsRun: a streaming client that goes away
// cancels the batch context — in-flight jobs report cancellation instead
// of running to completion, and nothing leaks.
func TestBatchStreamDisconnectCancelsRun(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	// Fake experiments that block until the test releases them, standing
	// in for arbitrarily slow real runs.
	block := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(block) }) }
	defer release()
	hang := func() (*lpmem.Result, error) {
		<-block
		return okResult()
	}
	eng := lpmem.NewEngine(runner.Options{Workers: 2})
	exps := []lpmem.Experiment{fakeExp("E1", hang), fakeExp("E2", hang)}
	ts := httptest.NewServer(New(eng, WithExperiments(exps)).Handler())
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run?ids=E1,E2&stream=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the start event so the handler is definitely running, then
	// vanish.
	br := bufio.NewReader(resp.Body)
	if line, err := br.ReadString('\n'); err != nil || !strings.Contains(line, "start") {
		t.Fatalf("first line %q, err %v", line, err)
	}
	cancel()
	resp.Body.Close()

	// Cancellation must reach the engine: both jobs settle as cancelled
	// even though their bodies never return.
	deadline := time.Now().Add(3 * time.Second)
	for {
		var m MetricsSnapshot
		get(t, ts.URL+"/metrics", &m)
		if m.Runner.Cancelled >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancellation did not reach the engine: %+v", m.Runner)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Let the abandoned bodies finish so the leak check sees a quiet
	// process.
	release()
}

// TestEarlyDisconnectQueuesNoWork: a request whose client is already gone
// when the handler starts must not enqueue work (satellite bugfix).
func TestEarlyDisconnectQueuesNoWork(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := lpmem.NewEngine(runner.Options{Workers: 2})
	srv := New(eng)
	h := srv.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	req := httptest.NewRequest(http.MethodPost, "/run?ids=E16", nil).WithContext(ctx)
	h.ServeHTTP(httptest.NewRecorder(), req)
	if eng.CacheLen() != 0 {
		t.Fatal("dead client's batch still ran")
	}

	body := strings.NewReader(`{"space":"banks","points":2}`)
	req = httptest.NewRequest(http.MethodPost, "/sweeps", body).WithContext(ctx)
	h.ServeHTTP(httptest.NewRecorder(), req)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sweeps", nil))
	var list struct {
		Sweeps []sweepStatus `json:"sweeps"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 0 {
		t.Fatalf("dead client's sweep was accepted: %+v", list.Sweeps)
	}
}

// TestSweepStreamSSE: POST /sweeps?stream=1 emits accepted, progress
// snapshots, and a final done event carrying the tables; a settled sweep
// re-watched via GET /sweeps/{id}?stream=1 yields an immediate done.
func TestSweepStreamSSE(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/sweeps?stream=1", "application/json",
		strings.NewReader(`{"space":"banks","points":4,"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	events := readSSE(t, resp.Body)
	if len(events) < 2 {
		t.Fatalf("got %d events, want at least accepted+done", len(events))
	}
	var acc sweepStatus
	if events[0].name != "accepted" {
		t.Fatalf("first event %q", events[0].name)
	}
	if err := json.Unmarshal(events[0].data, &acc); err != nil || acc.ID == "" || acc.Total != 4 {
		t.Fatalf("accepted event: %v %+v", err, acc)
	}
	for _, ev := range events[1 : len(events)-1] {
		if ev.name != "progress" {
			t.Fatalf("middle event %q", ev.name)
		}
	}
	last := events[len(events)-1]
	if last.name != "done" {
		t.Fatalf("last event %q", last.name)
	}
	var done sweepStatus
	if err := json.Unmarshal(last.data, &done); err != nil {
		t.Fatal(err)
	}
	if done.Status != "ok" || done.Done != 4 || done.Frontier == nil || done.Results == nil {
		t.Fatalf("done event: %+v", done)
	}

	// Watching the settled sweep again degenerates to an immediate done.
	resp2, err := http.Get(ts.URL + "/sweeps/" + acc.ID + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	events2 := readSSE(t, resp2.Body)
	if len(events2) != 1 || events2[0].name != "done" {
		t.Fatalf("settled watch events: %+v", events2)
	}
}

// TestRequestIDAndAccessLog: every response carries a request ID
// (incoming IDs are honoured) and each request writes one structured
// access-log line.
func TestRequestIDAndAccessLog(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := lpmem.NewEngine(runner.Options{Workers: 2})
	var buf bytes.Buffer
	srv := New(eng, WithAccessLog(&buf))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	minted := resp.Header.Get(requestIDHeader)
	if minted == "" {
		t.Fatal("no request ID minted")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/experiments", nil)
	req.Header.Set(requestIDHeader, "lg-042")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(requestIDHeader); got != "lg-042" {
		t.Fatalf("incoming request ID not honoured: %q", got)
	}

	ts.Close() // flush in-flight handlers before reading the buffer
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log lines = %d:\n%s", len(lines), buf.String())
	}
	var recs []accessRecord
	for _, ln := range lines {
		var rec accessRecord
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("bad access-log line %q: %v", ln, err)
		}
		recs = append(recs, rec)
	}
	if recs[0].RequestID != minted || recs[0].Path != "/healthz" || recs[0].Status != http.StatusOK {
		t.Fatalf("first record: %+v", recs[0])
	}
	if recs[1].RequestID != "lg-042" || recs[1].Method != http.MethodGet || recs[1].DurationMS < 0 {
		t.Fatalf("second record: %+v", recs[1])
	}
}

// TestResultStoreSharedAcrossServers: a result computed by one replica is
// served from the shared store by another, without re-running it.
func TestResultStoreSharedAcrossServers(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	path := filepath.Join(t.TempDir(), "results.jsonl")

	storeA, err := resultstore.Open(path, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer storeA.Close()
	engA := lpmem.NewEngine(runner.Options{Workers: 2})
	tsA := httptest.NewServer(New(engA, WithResultStore(storeA)).Handler())
	defer tsA.Close()

	var env lpmem.ResultJSON
	if code := get(t, tsA.URL+"/experiments/E17", &env); code != http.StatusOK || env.Cached {
		t.Fatalf("first run: code %d, %+v", code, env)
	}

	// Replica B opens the same file cold and must serve the stored result.
	storeB, err := resultstore.Open(path, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer storeB.Close()
	engB := lpmem.NewEngine(runner.Options{Workers: 2})
	tsB := httptest.NewServer(New(engB, WithResultStore(storeB)).Handler())
	defer tsB.Close()

	var envB lpmem.ResultJSON
	if code := get(t, tsB.URL+"/experiments/E17", &envB); code != http.StatusOK {
		t.Fatalf("replica B status %d", code)
	}
	if !envB.Cached {
		t.Fatal("replica B did not serve from the shared store")
	}
	if engB.CacheLen() != 0 {
		t.Fatal("replica B ran the experiment despite a store hit")
	}
	if envB.Summary != env.Summary || len(envB.Rows) != len(env.Rows) {
		t.Fatal("store round-trip altered the envelope")
	}

	// Batch runs partition into store hits and genuine work.
	resp, err := http.Post(tsB.URL+"/run?ids=E17,E22", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var batch struct {
		Results []lpmem.ResultJSON `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 {
		t.Fatalf("batch results: %+v", batch)
	}
	if !batch.Results[0].Cached {
		t.Fatal("E17 not served from store in batch")
	}
	if batch.Results[1].Error != "" {
		t.Fatalf("E22 failed: %s", batch.Results[1].Error)
	}

	var m MetricsSnapshot
	get(t, tsB.URL+"/metrics", &m)
	if m.Store == nil {
		t.Fatal("metrics missing store block")
	}
	if m.Store.Hits < 2 || m.Store.Keys < 2 {
		t.Fatalf("store metrics: %+v", m.Store)
	}
}

// TestServiceDelayHonoursContext: the synthetic service delay aborts
// promptly when the request context dies.
func TestServiceDelayHonoursContext(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := lpmem.NewEngine(runner.Options{Workers: 2})
	srv := New(eng, WithServiceDelay(5*time.Second))
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	srv.delay(ctx)
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("delay ignored cancellation: %v", d)
	}
}

// TestStorePersistsOnlySuccesses drives every experiment route twice
// over a registry with one healthy and one failing experiment. A failure
// is never written to the result store, the healthy envelope served from
// the store differs from the computed one only in "cached", and a
// request answered wholly from the store submits nothing to the engine.
func TestStorePersistsOnlySuccesses(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	routes := []struct {
		name  string
		fetch func(t *testing.T, base string) map[string]lpmem.ResultJSON
	}{
		{"one", func(t *testing.T, base string) map[string]lpmem.ResultJSON {
			out := map[string]lpmem.ResultJSON{}
			for _, id := range []string{"E1", "E2"} {
				var env lpmem.ResultJSON
				get(t, base+"/experiments/"+id, &env)
				out[env.ID] = env
			}
			return out
		}},
		{"batch", func(t *testing.T, base string) map[string]lpmem.ResultJSON {
			_, body := postRun(t, base+"/run?ids=E1,E2")
			out := map[string]lpmem.ResultJSON{}
			for _, env := range body.Results {
				out[env.ID] = env
			}
			return out
		}},
		{"stream", func(t *testing.T, base string) map[string]lpmem.ResultJSON {
			resp, err := http.Post(base+"/run?ids=E1,E2&stream=1", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			out := map[string]lpmem.ResultJSON{}
			for _, ev := range readSSE(t, resp.Body) {
				if ev.name != "result" {
					continue
				}
				var env lpmem.ResultJSON
				if err := json.Unmarshal(ev.data, &env); err != nil {
					t.Fatal(err)
				}
				out[env.ID] = env
			}
			return out
		}},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			store, err := resultstore.Open(filepath.Join(t.TempDir(), "results.jsonl"), resultstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			ts, eng := faultServer(t, WithResultStore(store))

			miss := rt.fetch(t, ts.URL)
			if miss["E1"].Error != "" || miss["E1"].Cached || miss["E2"].Error == "" {
				t.Fatalf("first pass: %+v", miss)
			}
			if n := store.Stats().Appends; n != 1 {
				t.Fatalf("first pass appended %d entries, want only the success", n)
			}

			hit := rt.fetch(t, ts.URL)
			if !hit["E1"].Cached || hit["E2"].Error == "" {
				t.Fatalf("second pass: %+v", hit)
			}
			if n := store.Stats().Appends; n != 1 {
				t.Fatalf("second pass appended: %d entries in total, want 1", n)
			}
			fromStore := hit["E1"]
			fromStore.Cached = false
			if !reflect.DeepEqual(fromStore, miss["E1"]) {
				t.Fatalf("store hit differs beyond cached:\nhit:  %+v\nmiss: %+v", hit["E1"], miss["E1"])
			}

			before := eng.Metrics().Submitted
			var env lpmem.ResultJSON
			get(t, ts.URL+"/experiments/E1", &env)
			if !env.Cached || eng.Metrics().Submitted != before {
				t.Fatalf("all-hit request reached the engine: cached=%v submitted %d -> %d",
					env.Cached, before, eng.Metrics().Submitted)
			}
		})
	}
}
