package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lpmem"
	"lpmem/internal/httpapi"
	"lpmem/internal/regress"
	"lpmem/internal/resultstore"
	"lpmem/internal/runner"
	"lpmem/internal/sweep"
)

// The fixed open-loop read rates and the read latency limit for max_rps.
// Two connections reading closed-loop from the in-process server reach
// about 12k rps on a 2-vCPU host, but open-loop arrivals pay thread
// wake-ups on every request and hold the limit only to 4.5k-5.5k rps;
// the rates sit at roughly 10%, 30% and 60% of that open-loop capacity.
const (
	rateLow      = 500.0
	rateMid      = 1500.0
	rateHigh     = 3000.0
	readP99Limit = 5 * time.Millisecond
	// A step whose generator lag p99 exceeds the read limit is invalid:
	// the generator's own lateness alone would break the limit.
	genLagLimit = readP99Limit
	serveSetups = 3
)

// The sweep lane: small Latin-hypercube sweeps of the memhier space,
// whose points cost about the same, so no single point dominates the
// reads' tail. Every sweep is cold: the generator picks each sweep's
// seed so that none of its points was requested before on this server
// (see coldSeed), and a sweep that finds a stored point fails. One
// server's lane uses 100 of the space's 120 grid points: as many sweeps
// as fit, for a steady median of their latencies, while the last seeds
// are still found in tens of draws. No record of real sweep traffic
// exists; the lane size is set by that cold-point budget.
const (
	sweepSpace  = "memhier"
	sweepPoints = 2
	laneSweeps  = 50
)

// The read mix: the repo's one loadgen mix (lpmem loadgen's default
// one=8,batch=1,list=1, also the CI serve stage's), with batches of two
// independently drawn IDs as loadgen sends them. Weights are out of 10.
// No record of real read traffic exists.
const (
	mixOne   = 8
	mixBatch = 1
	batchIDs = 2
)

// nproc bounds the engine's workers and the read connections.
func nproc() int { return runtime.GOMAXPROCS(0) }

// server is an in-process lpmemd: a real engine, a file-backed result
// store and sweep store, admission on, on a loopback listener.
type server struct {
	dir    string
	store  *resultstore.Store
	sweeps *sweep.Store
	http   *http.Server
	base   string
	served chan error
}

// startServer builds the server in a fresh directory under work. wrap,
// when set, decorates the route table (the traced run's timing hook).
func startServer(work string, exps []lpmem.Experiment, wrap func(http.Handler) http.Handler) (*server, error) {
	dir, err := os.MkdirTemp(work, "serve-")
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, served: make(chan error, 1)}
	if s.store, err = resultstore.Open(filepath.Join(dir, "results.jsonl"), resultstore.Options{}); err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	if s.sweeps, err = sweep.OpenStore(filepath.Join(dir, "sweeps.jsonl")); err != nil {
		_ = s.store.Close()
		_ = os.RemoveAll(dir)
		return nil, err
	}
	eng := lpmem.NewEngine(runner.Options{Workers: nproc()})
	api := httpapi.New(eng,
		httpapi.WithExperiments(exps),
		httpapi.WithResultStore(s.store),
		httpapi.WithSweepStore(s.sweeps),
		httpapi.WithAdmission(nproc(), 4*nproc()))
	handler := api.Handler()
	if wrap != nil {
		handler = wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeStores()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: handler}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

func (s *server) closeStores() {
	_ = s.store.Close()
	_ = s.sweeps.Close()
	_ = os.RemoveAll(s.dir)
}

// stop shuts the listener down, waits for the serve loop to return and
// removes the stores. Every sweep the benchmark submitted has settled
// by then: the sweep lane waits for each stream's done event.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.closeStores()
	return err
}

// checker verifies response bodies against the goldens. A single-read
// body already verified for its ID is recognised by its bytes, so the
// steady-state check is one comparison.
type checker struct {
	goldens map[string]regress.Snapshot
	mu      sync.Mutex
	seen    map[string][]byte
}

func newChecker(goldens map[string]regress.Snapshot) *checker {
	return &checker{goldens: goldens, seen: map[string][]byte{}}
}

// envelope checks one experiment envelope's rows, header and summary.
func (c *checker) envelope(env lpmem.ResultJSON) error {
	if env.Error != "" {
		return fmt.Errorf("%s: %s", env.ID, env.Error)
	}
	g, ok := c.goldens[env.ID]
	if !ok {
		return fmt.Errorf("%s: no golden", env.ID)
	}
	live := regress.Snapshot{ID: env.ID, Summary: env.Summary, Header: env.Header, Rows: env.Rows}
	if d := regress.CompareSnapshot(g, live); len(d) > 0 {
		return fmt.Errorf("%s: %d drifts from golden, first: %v", env.ID, len(d), d[0])
	}
	return nil
}

func (c *checker) one(id string, body []byte) error {
	c.mu.Lock()
	known := c.seen[id]
	c.mu.Unlock()
	if known != nil && bytes.Equal(known, body) {
		return nil
	}
	var env lpmem.ResultJSON
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("%s: decoding: %w", id, err)
	}
	if env.ID != id {
		return fmt.Errorf("asked for %s, got %s", id, env.ID)
	}
	if err := c.envelope(env); err != nil {
		return err
	}
	c.mu.Lock()
	c.seen[id] = append([]byte(nil), body...)
	c.mu.Unlock()
	return nil
}

// batch checks a /run body; the server answers each distinct ID once,
// in the order first asked for.
func (c *checker) batch(asked []string, body []byte) error {
	var ids []string
	for _, id := range asked {
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	var b struct {
		Status  string             `json:"status"`
		Results []lpmem.ResultJSON `json:"results"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("batch: decoding: %w", err)
	}
	if b.Status != "ok" || len(b.Results) != len(ids) {
		return fmt.Errorf("batch %v: status %q, %d results", ids, b.Status, len(b.Results))
	}
	for i, env := range b.Results {
		if env.ID != ids[i] {
			return fmt.Errorf("batch: result %d is %s, want %s", i, env.ID, ids[i])
		}
		if err := c.envelope(env); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) list(body []byte) error {
	var l struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(body, &l); err != nil {
		return fmt.Errorf("list: decoding: %w", err)
	}
	if l.Count != len(c.goldens) {
		return fmt.Errorf("list: %d experiments, want %d", l.Count, len(c.goldens))
	}
	return nil
}

// read is one request of the read mix.
type read struct {
	kind string // "one", "batch" or "list"
	ids  []string
}

func (r read) method() string {
	if r.kind == "batch" {
		return http.MethodPost
	}
	return http.MethodGet
}

func (r read) path() string {
	switch r.kind {
	case "one":
		return "/experiments/" + r.ids[0]
	case "batch":
		return "/run?ids=" + strings.Join(r.ids, ",")
	}
	return "/experiments"
}

// drawRead draws one read of the mix over the registry IDs.
func drawRead(rng *rand.Rand, ids []string) read {
	switch x := rng.Intn(10); {
	case x < mixOne:
		return read{kind: "one", ids: []string{ids[rng.Intn(len(ids))]}}
	case x < mixOne+mixBatch:
		b := make([]string, batchIDs)
		for j := range b {
			b[j] = ids[rng.Intn(len(ids))]
		}
		return read{kind: "batch", ids: b}
	}
	return read{kind: "list"}
}

// step is one load phase's outcome.
type step struct {
	name     string
	window   time.Duration
	reads    []timing
	readOK   []bool
	sweeps   []timing
	sweepOK  []bool
	complete time.Duration // when the last read completed
}

// readLatencies returns the read latencies in ms, in the order the
// reads were sent; a failed read counts as missing any limit.
func (s step) readLatencies() []float64 {
	out := make([]float64, len(s.reads))
	for i, t := range s.reads {
		out[i] = ms(t.latency())
		if !s.readOK[i] {
			out[i] = 1e9
		}
	}
	return out
}

// sweepLatencies returns the sweep requests' latencies in ms.
func (s step) sweepLatencies() []float64 {
	out := make([]float64, len(s.sweeps))
	for i, t := range s.sweeps {
		out[i] = ms(t.latency())
		if !s.sweepOK[i] {
			out[i] = 1e9
		}
	}
	return out
}

// readP99 is the step's read latency p99 in ms, over every read, so a
// stall that hits only some of the step's reads still moves it.
func (s step) readP99() float64 { return quantile(s.readLatencies(), 0.99) }

// lagP99 is the generator's lag p99 in ms.
func (s step) lagP99() float64 {
	lags := make([]float64, len(s.reads))
	for i, t := range s.reads {
		lags[i] = ms(t.lag())
	}
	return quantile(lags, 0.99)
}

// valid reports whether the generator kept its schedule: a step whose
// lag p99 exceeds the read limit measured the generator, not the server.
func (s step) valid() bool { return s.lagP99() <= ms(genLagLimit) }

// throughput is completed reads per second over the step.
func (s step) throughput() float64 {
	return float64(len(s.reads)) / max(s.window, s.complete).Seconds()
}

// meets reports whether the step held the read p99 limit without a
// growing backlog: requests in the last quarter of the step must not
// wait much longer than those in the first.
func (s step) meets() bool {
	lat := s.readLatencies()
	if len(lat) < 8 || s.readP99() > ms(readP99Limit) {
		return false
	}
	q := len(lat) / 4
	first, last := median(lat[:q]), median(lat[len(lat)-q:])
	return last <= 2*first+1 // +1 ms: sub-millisecond jitter is not growth
}

// generator drives one server with the read lane (nproc connections)
// and the sweep lane (one streaming connection).
type generator struct {
	rep      *report
	base     string
	check    *checker
	ids      []string
	rng      *rand.Rand
	conns    []*http.Client
	sweeper  *http.Client
	seq      int
	space    sweep.Space
	swept    map[string]bool // canonical points the sweep lane has requested
	sweepSeq int64
}

// oneConn returns a client that keeps one persistent connection.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

func newGenerator(rep *report, base string, check *checker, ids []string, seed int64) (*generator, error) {
	ad, err := sweep.ByName(sweepSpace)
	if err != nil {
		return nil, err
	}
	g := &generator{
		rep: rep, base: base, check: check, ids: ids,
		rng:      rand.New(rand.NewSource(seed)),
		sweeper:  oneConn(),
		space:    ad.Space(),
		swept:    map[string]bool{},
		sweepSeq: seed * 1_000_000,
	}
	for i := 0; i < nproc(); i++ {
		g.conns = append(g.conns, oneConn())
	}
	return g, nil
}

func (g *generator) close() {
	for _, c := range append(g.conns, g.sweeper) {
		c.CloseIdleConnections()
	}
}

// run executes one open-loop step: Poisson reads at rate beside a sweep
// lane of sweeps cold sweeps, both for window; it returns once every
// request has completed.
func (g *generator) run(name string, rate float64, window time.Duration, sweeps int) step {
	g.seq++
	st := step{name: name, window: window}
	due := poissonSchedule(g.rng, rate, window)
	mix := make([]read, len(due))
	for i := range mix {
		mix[i] = drawRead(g.rng, g.ids)
	}
	st.readOK = make([]bool, len(due))
	start := time.Now()
	done := g.sweepLane(&st, start, sweeps)
	st.reads = dispatch(start, due, len(g.conns), func(c, i int) {
		st.readOK[i] = g.checkedRead(g.conns[c], mix[i], name, i)
	})
	<-done
	for _, t := range st.reads {
		st.complete = max(st.complete, t.done)
	}
	return st
}

// closed executes one closed-loop step: every read connection sends its
// next read as soon as the previous response is complete, until window
// has passed, beside a sweep lane of sweeps cold sweeps.
func (g *generator) closed(name string, window time.Duration, sweeps int) step {
	g.seq++
	st := step{name: name, window: window}
	rngs := make([]*rand.Rand, len(g.conns))
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(g.rng.Int63()))
	}
	type result struct {
		t  timing
		ok bool
	}
	per := make([][]result, len(g.conns))
	start := time.Now()
	done := g.sweepLane(&st, start, sweeps)
	var wg sync.WaitGroup
	for c := range g.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(start) < window; i++ {
				sent := time.Since(start)
				ok := g.checkedRead(g.conns[c], drawRead(rngs[c], g.ids), name, c<<32|i)
				per[c] = append(per[c], result{timing{due: sent, taken: sent, sent: sent, done: time.Since(start)}, ok})
			}
		}(c)
	}
	wg.Wait()
	<-done
	var all []result
	for _, rs := range per {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].t.sent < all[j].t.sent })
	for _, r := range all {
		st.reads = append(st.reads, r.t)
		st.readOK = append(st.readOK, r.ok)
		st.complete = max(st.complete, r.t.done)
	}
	return st
}

// sweepLane starts a lane of n cold sweeps spread evenly over one step
// and returns a channel closed once its last sweep has settled.
func (g *generator) sweepLane(st *step, start time.Time, n int) <-chan struct{} {
	due := evenSchedule(n, st.window)
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = g.coldSeed()
	}
	st.sweepOK = make([]bool, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.sweeps = dispatch(start, due, 1, func(_, i int) {
			err := g.sweep(seeds[i])
			st.sweepOK[i] = err == nil
			g.rep.check(err == nil, "%s sweep seed %d: %v", st.name, seeds[i], err)
		})
	}()
	return done
}

// coldSeed returns the next seed whose sample has sweepPoints distinct
// points that no earlier sweep of this generator requested, and marks
// them requested. Each seed is drawn from the generator's sequence, so
// the lane is the same for the same run seed.
func (g *generator) coldSeed() int64 {
	for {
		g.sweepSeq++
		pts, err := g.space.Sample(sweepPoints, g.sweepSeq)
		if err != nil || len(pts) != sweepPoints {
			continue // the server's sweep of this seed is then not cold either
		}
		fresh := true
		for _, p := range pts {
			fresh = fresh && !g.swept[p.Canonical()]
		}
		if fresh {
			for _, p := range pts {
				g.swept[p.Canonical()] = true
			}
			return g.sweepSeq
		}
	}
}

// checkedRead sends read number i of a step and counts its check.
func (g *generator) checkedRead(c *http.Client, r read, step string, i int) bool {
	rid := step + "-" + strconv.Itoa(g.seq) + "-" + strconv.Itoa(i)
	err := g.read(c, r, rid)
	g.rep.check(err == nil, "%s read %s %s: %v", step, r.method(), r.path(), err)
	return err == nil
}

// spanHeader carries the client span's ID to the traced run's handler
// wrapper, so the server-side span can name its parent. The server
// itself ignores it.
const spanHeader = "X-Perfbench-Span"

// read sends one read over c and checks its body.
func (g *generator) read(c *http.Client, r read, rid string) error {
	req, err := http.NewRequest(r.method(), g.base+r.path(), nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Request-ID", rid)
	sp := g.rep.spans.begin("client", "read."+r.kind, 0, rid)
	if sp.id() != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id(), 10))
	}
	resp, err := c.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		_ = resp.Body.Close()
	}
	sp.end()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	switch r.kind {
	case "one":
		return g.check.one(r.ids[0], body)
	case "batch":
		return g.check.batch(r.ids, body)
	}
	return g.check.list(body)
}

// sweep submits a small Latin-hypercube sweep with a cold seed and
// follows its event stream; it must end in done with status ok, every
// point evaluated and none found in the store.
func (g *generator) sweep(seed int64) error {
	body := fmt.Sprintf(`{"space":%q,"points":%d,"seed":%d}`, sweepSpace, sweepPoints, seed)
	req, err := http.NewRequest(http.MethodPost, g.base+"/sweeps?stream=1", strings.NewReader(body))
	if err != nil {
		return err
	}
	rid := fmt.Sprintf("sweep-%d", seed)
	req.Header.Set("X-Request-ID", rid)
	sp := g.rep.spans.begin("client", "sweep", 0, rid)
	if sp.id() != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id(), 10))
	}
	defer sp.end()
	resp, err := g.sweeper.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	event, data, err := lastEvent(resp.Body)
	if err != nil {
		return err
	}
	if event != "done" {
		return fmt.Errorf("stream ended with %q, not done", event)
	}
	var st struct {
		Status    string `json:"status"`
		Total     int    `json:"total"`
		Evaluated int    `json:"evaluated"`
		Cached    int    `json:"cached"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("decoding done event: %w", err)
	}
	if st.Status != "ok" || st.Total != sweepPoints || st.Evaluated != st.Total || st.Cached != 0 {
		return fmt.Errorf("done: status %q, %d evaluated + %d cached of %d", st.Status, st.Evaluated, st.Cached, st.Total)
	}
	return nil
}

// lastEvent reads a server-sent event stream to its end and returns
// the final event's name and data.
func lastEvent(r io.Reader) (string, []byte, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var event string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	return event, data, sc.Err()
}

// warm computes the whole registry through the server's own batch path,
// which persists every envelope in the result store, and checks it.
func warm(base string, check *checker, ids []string) error {
	resp, err := http.Post(base+"/run?ids=all", "", nil)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("warming: status %d", resp.StatusCode)
	}
	return check.batch(ids, body)
}

// serveLoad is the serve workload's state after set-up.
type serveLoad struct {
	srv   *server
	check *checker
	ids   []string
}

// setupServe starts a server in a fresh directory and warms its store,
// serveSetups times; all but the last are stopped again.
func setupServe(o options, rep *report, wrap func(http.Handler) http.Handler) (serveLoad, float64, error) {
	exps := o.experiments()
	var l serveLoad
	for _, e := range exps {
		l.ids = append(l.ids, e.ID)
	}
	n := serveSetups
	if o.traced {
		n = 1
	}
	secs, err := repeat(n, func() error {
		if l.srv != nil {
			if err := l.srv.stop(); err != nil {
				return err
			}
		}
		l.check = newChecker(loadGoldens(o.golden, exps, rep))
		srv, err := startServer(o.work, exps, wrap)
		if err != nil {
			return err
		}
		l.srv = srv
		err = warm(srv.base, l.check, l.ids)
		rep.check(err == nil, "warming the store: %v", err)
		return nil
	})
	return l, secs, err
}

// Open-loop step windows as shares of the measurement window. The low
// step gets the most time because it has the fewest reads per second.
// The traced run's five steps with a sweep lane (low, mid, high and the
// two closed-loop steps) share one server's lane budget.
const (
	shareLow         = 0.4
	shareMid         = 0.3
	shareHigh        = 0.3
	tracedLaneSweeps = laneSweeps / 5
)

// serveWorkReads is the serve workload's unit of work: this many reads
// completed by the closed-loop read connections.
const serveWorkReads = 10_000

// runServe measures the server under full read load: every read
// connection closed-loop for the whole window, beside the sweep lane.
// With the process busy, latencies reflect the request path rather than
// thread wake-ups. Its calls are the reads. The open-loop latency steps
// and the max_rps ladder run in the traced run (see traceServe).
func runServe(o options, rep *report) error {
	l, setup, err := setupServe(o, rep, nil)
	if err != nil {
		return err
	}
	rep.set("setup_s", setup, "s")
	g, err := newGenerator(rep, l.srv.base, l.check, l.ids, o.seed)
	if err != nil {
		return err
	}
	defer g.close()
	st := g.closed("closed", o.budget(), laneSweeps)
	rep.setWork(serveWorkReads/st.throughput(), st.readLatencies())
	logStep(rep, st)
	if err := l.srv.stop(); err != nil {
		return err
	}
	return setPeakRSS(rep)
}

// openLoopSteps runs the low, mid and high open-loop steps with the
// sweep lane, sharing budget, and reports their latencies.
func openLoopSteps(budget time.Duration, rep *report, g *generator) {
	for _, s := range []struct {
		name  string
		rate  float64
		share float64
	}{{"low", rateLow, shareLow}, {"mid", rateMid, shareMid}, {"high", rateHigh, shareHigh}} {
		st := g.run(s.name, s.rate, time.Duration(s.share*float64(budget)), tracedLaneSweeps)
		if !st.valid() {
			// A host stall, not a wrong output: mark the step, do not
			// count a failed operation.
			fmt.Fprintf(rep.log, "perfbench: serve %s step INVALID: generator lag p99 %.3f ms over %v\n", s.name, st.lagP99(), genLagLimit)
		}
		rep.set("read_p50_ms."+s.name, median(st.readLatencies()), "ms")
		rep.set("read_p99_ms."+s.name, st.readP99(), "ms")
		if s.name == "mid" {
			rep.set("sweep_req_p50_ms.mid", median(st.sweepLatencies()), "ms")
		}
		if s.name == "high" {
			rep.set("gen.lag_p99_ms", st.lagP99(), "ms")
		}
		logStep(rep, st)
	}
}

// duringSweeps returns the latencies in ms of the reads whose life
// overlapped a running sweep request.
func (s step) duringSweeps() []float64 {
	var out []float64
	lat := s.readLatencies()
	for i, r := range s.reads {
		for _, w := range s.sweeps {
			if r.sent < w.done && w.sent < r.done {
				out = append(out, lat[i])
				break
			}
		}
	}
	return out
}

func logStep(rep *report, st step) {
	during := st.duringSweeps()
	fmt.Fprintf(rep.log, "perfbench: serve %s: %d reads at %.0f rps, p50 %.3f p99 %.3f ms, lag p99 %.3f ms, %d sweeps p50 %.1f ms, %d reads during sweeps p50 %.3f ms\n",
		st.name, len(st.reads), st.throughput(), median(st.readLatencies()), st.readP99(), st.lagP99(), len(st.sweeps), median(st.sweepLatencies()), len(during), median(during))
}

// The max_rps ladder: up to ladderRungs rungs 5% apart from the high
// rate up, each a thirtieth of the serve section's budget (0.42 s at the
// 25-second window, of which the traced serve section gets half).
const (
	ladderStep  = 1.05
	ladderRungs = 16
	// ladderMisses consecutive rungs must miss the limit to end the
	// climb, so one noisy rung does not.
	ladderMisses = 2
)

// ladder climbs from the high rate in 5% rungs of reads alone (the
// sweep lane is off, so this is the read capacity) and returns the read
// throughput achieved at the highest rung that held the read p99 limit
// without a growing backlog, with the generator on schedule. If no rung
// holds, the result is the first rung's throughput (a capacity finding,
// not a failed operation).
func ladder(g *generator, rep *report, budget time.Duration) float64 {
	rung := max(budget/30, 100*time.Millisecond)
	rate, best, first, misses := rateHigh, 0.0, 0.0, 0
	for k := 0; k < ladderRungs && misses < ladderMisses; k++ {
		st := g.run(fmt.Sprintf("rung%d", k), rate, rung, 0)
		ok := st.meets() && st.valid()
		fmt.Fprintf(rep.log, "perfbench: serve rung %d: %.0f rps offered, %.0f achieved, p99 %.3f ms, lag p99 %.3f ms, meets %v\n",
			k, rate, st.throughput(), st.readP99(), st.lagP99(), ok)
		if k == 0 {
			first = st.throughput()
		}
		if ok {
			best, misses = st.throughput(), 0
		} else {
			misses++
		}
		rate *= ladderStep
	}
	if best == 0 {
		fmt.Fprintf(rep.log, "perfbench: serve: no ladder rung from %.0f rps held the read limit\n", rateHigh)
		return first
	}
	return best
}

// ledgerServeShare is the share of the measurement window the traced
// run's serve section uses in place of the whole window.
const ledgerServeShare = 0.5

// traceServe is the serve section of the traced run, on a budget of
// ledgerServeShare of the window. Untraced, it runs the open-loop
// latency steps and the max_rps ladder, whose figures vary too much
// between runs on a shared host to gate changes, and a closed-loop
// reference step; then the same closed-loop step with a span on every
// client request and a server-side span from a timing wrapper around
// the handler; then probes of the result store. It returns the tracing
// overhead in percent.
func traceServe(o options, rep *report) (float64, error) {
	rec := rep.spans
	hs := newHandlerStats()
	var tracing atomic.Bool // switched on for the traced step
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !tracing.Load() {
				next.ServeHTTP(w, r)
				return
			}
			parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
			start := time.Now()
			next.ServeHTTP(w, r)
			end := time.Now()
			kind := routeKind(r)
			rec.add("httpapi", kind, parent, r.Header.Get("X-Request-ID"), start, end)
			hs.add(kind, end.Sub(start))
		})
	}
	rep.spans = nil
	l, _, err := setupServe(o, rep, wrap)
	if err != nil {
		return 0, err
	}
	g, err := newGenerator(rep, l.srv.base, l.check, l.ids, o.seed)
	if err != nil {
		return 0, err
	}
	defer g.close()
	budget := time.Duration(ledgerServeShare * float64(o.budget()))
	openLoopSteps(budget, rep, g)
	rep.set("max_rps", ladder(g, rep, budget), "1/s")
	window := time.Duration(shareMid * float64(budget))
	plain := g.closed("closed-untraced", window, tracedLaneSweeps).throughput()

	rep.spans = rec
	tracing.Store(true)
	traced := g.closed("closed", window, tracedLaneSweeps).throughput()
	tracing.Store(false)
	hs.report(rep)

	var m struct {
		Admission *httpapi.AdmissionStats `json:"admission"`
	}
	if err := getJSON(l.srv.base+"/metrics", &m); err != nil {
		return 0, err
	}
	if m.Admission == nil {
		return 0, fmt.Errorf("/metrics has no admission block")
	}
	rep.set("httpapi.admitted", float64(m.Admission.Admitted), "count")
	rep.set("httpapi.shed", float64(m.Admission.Shed), "count")

	if err := probeResultStore(o, rep, l); err != nil {
		return 0, err
	}
	return 100 * (plain - traced) / traced, l.srv.stop()
}

// routeKind classifies a request for the handler timing.
func routeKind(r *http.Request) string {
	switch {
	case strings.HasPrefix(r.URL.Path, "/experiments/"):
		return "one"
	case r.URL.Path == "/run":
		return "batch"
	case r.URL.Path == "/experiments":
		return "list"
	case strings.HasPrefix(r.URL.Path, "/sweeps"):
		return "sweep"
	}
	return "other"
}

// handlerStats collects handler durations per route kind.
type handlerStats struct {
	mu sync.Mutex
	d  map[string][]float64
}

func newHandlerStats() *handlerStats { return &handlerStats{d: map[string][]float64{}} }

func (h *handlerStats) add(kind string, d time.Duration) {
	h.mu.Lock()
	h.d[kind] = append(h.d[kind], us(d))
	h.mu.Unlock()
}

func (h *handlerStats) report(rep *report) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, kind := range []string{"one", "batch", "list", "sweep"} {
		rep.set("httpapi.handler_us."+kind+".p50", median(h.d[kind]), "us")
		rep.set("httpapi.handler_us."+kind+".p99", quantile(h.d[kind], 0.99), "us")
	}
}

func getJSON(url string, v interface{}) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decoding %s: %w", url, err)
	}
	return nil
}

// probeResultStore times the result store's own calls: reopening the
// warmed log, reading every key, and appending envelopes to a new log.
func probeResultStore(o options, rep *report, l serveLoad) error {
	path := l.srv.store.Path()
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	rep.set("resultstore.log_bytes", float64(fi.Size()), "bytes")

	var opens []float64
	var st *resultstore.Store
	for i := 0; i < 5; i++ {
		sp := rep.spans.begin("resultstore", "Open", 0, "")
		s, err := resultstore.Open(path, resultstore.Options{})
		opens = append(opens, ms(sp.end()))
		if err != nil {
			return err
		}
		if st != nil {
			_ = st.Close()
		}
		st = s
	}
	defer st.Close()
	rep.set("resultstore.open_ms", median(opens), "ms")

	var gets []float64
	var payloads []json.RawMessage
	for round := 0; round < 20; round++ {
		for _, id := range l.ids {
			t0 := time.Now()
			p, ok := st.Get(lpmem.CacheKey(id))
			gets = append(gets, us(time.Since(t0)))
			rep.check(ok, "result store has no %s", id)
			if round == 0 && ok {
				payloads = append(payloads, p)
			}
		}
	}
	rep.set("resultstore.get_us", median(gets), "us")

	scratch, err := resultstore.Open(filepath.Join(l.srv.dir, "probe.jsonl"), resultstore.Options{})
	if err != nil {
		return err
	}
	defer scratch.Close()
	var puts []float64
	for i, p := range payloads {
		t0 := time.Now()
		err := scratch.Put(fmt.Sprintf("probe-%d", i), "experiment", p)
		puts = append(puts, us(time.Since(t0)))
		rep.check(err == nil, "result store put: %v", err)
	}
	rep.set("resultstore.put_us", median(puts), "us")
	return nil
}
