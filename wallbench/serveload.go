package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"voodoo/internal/baseline/hyper"
	"voodoo/internal/metrics"
	"voodoo/internal/rel"
	"voodoo/internal/serve"
	"voodoo/internal/sql"
	"voodoo/internal/storage"
	"voodoo/internal/telemetry/slo"
	"voodoo/internal/tpch"
	"voodoo/internal/vector"
)

// clients is the number of closed-loop HTTP clients, each on its own
// keep-alive connection (one per CPU of the reference host).
const clients = 2

// latenciesPerClientSecond sizes each client's latency buffer up front,
// above the rate one client reaches on the reference host, so buffer
// growth does not show as steps in the live heap.
const latenciesPerClientSecond = 8000

// spanEvery is the share of a traced HTTP phase's requests recorded as
// spans: every spanEvery-th answered request of each client.
const spanEvery = 8

// Warm-up requests per set-up of serve-adhoc; serve-repeat sends its
// whole statement set instead, which fills the plan cache.
const adhocWarmup = 64

// In-process statement executions of a traced serve run.
const inProcessStatements = 256

// Compiled/hyper pairs timed after the timed phase for vs_hyper,
// cycling over the first pairStatements statements of the set.
const (
	pairRuns       = 4096
	pairStatements = 256
)

// server is an in-process serve.Server on a loopback listener, as
// voodoo-serve -data runs it, and the HTTP client the workload drives it
// with.
type server struct {
	srv    *serve.Server
	http   *http.Server
	done   chan error
	url    string
	client *http.Client

	closeOnce sync.Once
	closeErr  error
}

func startServer(cat *storage.Catalog) (*server, error) {
	// The daemon's default objectives, so the per-request SLO bookkeeping
	// is part of what is measured.
	objectives, err := slo.Parse("query=500ms:0.99")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{
		Cat: cat, Timeout: 30 * time.Second, Registry: metrics.NewRegistry(), SLO: objectives,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  srv,
		http: &http.Server{Handler: srv.Mux()},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String() + "/query",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true,
		}},
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the serving goroutine to return
// and drops the client's connections. Later calls return the first
// call's error.
func (s *server) close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.closeErr = s.http.Shutdown(ctx)
		if err := <-s.done; !errors.Is(err, http.ErrServerClosed) && s.closeErr == nil {
			s.closeErr = err
		}
		s.client.CloseIdleConnections()
	})
	return s.closeErr
}

// response is the JSON body of a successful /query request.
type response struct {
	Cols  []string         `json:"cols"`
	Rows  []map[string]any `json:"rows"`
	Stats struct {
		QueueNS   int64 `json:"queue_ns"`
		CompileNS int64 `json:"compile_ns"`
		ExecNS    int64 `json:"exec_ns"`
		Cached    bool  `json:"cached"`
	} `json:"stats"`
}

// sample is one answered request, timed at the client, with the stats
// the server returned for it.
type sample struct {
	tmpl                       int
	start                      time.Time
	lat                        time.Duration
	bytes                      int
	queueNS, compileNS, execNS int64
	cached                     bool
}

type serveBench struct {
	cfg    config
	stmts  []statement
	res    *result
	srv    *server
	oracle []answer
	// next is the position in stmts of the next request.
	next     atomic.Int64
	failLogs atomic.Int64
}

func runServe(cfg config) (*result, error) {
	b := &serveBench{cfg: cfg, res: newResult()}
	if cfg.workload == "serve-adhoc" {
		b.stmts = adhocStatements(cfg.seed)
	} else {
		b.stmts = repeatStatements(cfg.seed)
	}
	calibBefore := calibrate()
	if err := b.answers(); err != nil {
		return nil, err
	}
	if err := b.setup(); err != nil {
		return nil, err
	}
	defer b.srv.close()

	var err error
	if cfg.traced {
		err = b.layers()
	} else {
		err = b.endToEnd()
	}
	if err != nil {
		return nil, err
	}
	if err := b.srv.close(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	b.res.set("host.calib_ms", calibBefore)
	b.res.set("host.calib_after_ms", calibrate())
	return b.res, nil
}

// answers is the oracle: before anything is timed it plans every
// statement on its own copy of the seed's catalog and answers it on the
// HyPer-style engine, with dictionary-encoded columns decoded as the
// server returns them.
func (b *serveBench) answers() error {
	cat := tpch.Generate(catalogConfig(b.cfg.seed))
	hy := &hyper.Engine{Cat: cat}
	b.oracle = make([]answer, len(b.stmts))
	for i, st := range b.stmts {
		q, err := planSQL(st.sql, cat)
		if err != nil {
			return fmt.Errorf("oracle: %q: %w", st.sql, err)
		}
		res, _, err := hy.Run(q)
		if err != nil {
			return fmt.Errorf("oracle: %q on hyper: %w", st.sql, err)
		}
		b.oracle[i] = decodedAnswer(res, cat)
	}
	return nil
}

// vsHyper measures vs_hyper for a serve workload after its timed phase.
// It runs statements in process on the path the server takes for them —
// a cached plan's RunPrepared for serve-repeat; parse, plan, Prepare and
// RunPrepared for serve-adhoc — each paired with the same statement on
// hyper (from a cached plan, or parsed and planned, alike), alternating
// which of the two goes first. The result is the geometric mean over
// the statements of each statement's median compiled/hyper ratio.
func (b *serveBench) vsHyper() (float64, error) {
	cat := b.srv.srv.Catalog()
	eng := &rel.Engine{Cat: cat, Backend: rel.Compiled, Pool: vector.NewPool(0)}
	hy := &hyper.Engine{Cat: cat}
	n := min(len(b.stmts), pairStatements)
	cached := b.cfg.workload == "serve-repeat"
	queries := make([]rel.Query, n)
	prepared := make([]*rel.Prepared, n)
	if cached {
		for i := range queries {
			q, err := planSQL(b.stmts[i].sql, cat)
			if err != nil {
				return 0, err
			}
			if prepared[i], err = eng.Prepare(q); err != nil {
				return 0, err
			}
			queries[i] = q
		}
	}
	ratios := make([][]float64, n)
	for k := 0; k < pairRuns; k++ {
		i := k % n
		var cres *rel.Result
		var cd, hd time.Duration
		var cerr, herr error
		runCompiled := func() {
			start := time.Now()
			if cached {
				cres, _, cerr = eng.RunPrepared(context.Background(), prepared[i])
			} else {
				var q rel.Query
				if q, cerr = planSQL(b.stmts[i].sql, cat); cerr == nil {
					cres, _, cerr = eng.Run(q)
				}
			}
			cd = time.Since(start)
		}
		runHyper := func() {
			start := time.Now()
			q := queries[i]
			if !cached {
				q, herr = planSQL(b.stmts[i].sql, cat)
			}
			if herr == nil {
				_, _, herr = hy.Run(q)
			}
			hd = time.Since(start)
		}
		if k%2 == 1 {
			runHyper()
		}
		runCompiled()
		if k%2 == 0 {
			runHyper()
		}
		if herr != nil {
			cerr = herr
		}
		b.check(i, cres, cerr, cat)
		if cerr == nil {
			ratios[i] = append(ratios[i], float64(cd)/float64(hd))
		}
	}
	var meds []float64
	for _, r := range ratios {
		meds = append(meds, median(r))
	}
	return geomean(meds), nil
}

func planSQL(src string, cat *storage.Catalog) (rel.Query, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return rel.Query{}, err
	}
	return sql.Plan(stmt, cat)
}

// setup prepares the catalog, starts the server and warms it,
// setupReps times over (each time replacing the previous server);
// setup_s is the median.
func (b *serveBench) setup() error {
	var setups, gens, loads []float64
	for i := 0; i < setupReps; i++ {
		if b.srv != nil {
			if err := b.srv.close(); err != nil {
				return fmt.Errorf("server shutdown: %w", err)
			}
		}
		start := time.Now()
		cat, gen, load, err := setupCatalog(b.cfg.seed, b.cfg.out)
		if err != nil {
			return fmt.Errorf("catalog: %w", err)
		}
		if b.srv, err = startServer(cat); err != nil {
			return fmt.Errorf("server start: %w", err)
		}
		warm := adhocWarmup
		if b.cfg.workload == "serve-repeat" {
			warm = len(b.stmts)
		}
		for j := 0; j < warm; j++ {
			if _, err := b.request(b.nextIndex()); err != nil {
				b.res.failed++
			}
			b.res.attempted++
		}
		setups = append(setups, time.Since(start).Seconds())
		gens = append(gens, ms(gen))
		loads = append(loads, ms(load))
	}
	b.res.setN("setup_s", median(setups), len(setups))
	b.res.set("storage.generate_ms", median(gens))
	b.res.set("storage.load_ms", median(loads))
	return nil
}

// nextIndex hands out statements in order, wrapping round the set.
func (b *serveBench) nextIndex() int { return int(b.next.Add(1)-1) % len(b.stmts) }

// request sends statement i, times it, and checks the answer against the
// oracle.
func (b *serveBench) request(i int) (sample, error) {
	st := b.stmts[i]
	s := sample{tmpl: st.tmpl, start: time.Now()}
	resp, err := b.srv.client.Post(b.srv.url, "text/plain", strings.NewReader(st.sql))
	if err != nil {
		return s, b.logFail(st, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(s.start)
	if err != nil {
		return s, b.logFail(st, err)
	}
	if resp.StatusCode != http.StatusOK {
		return s, b.logFail(st, fmt.Errorf("status %d: %s", resp.StatusCode, body))
	}
	s.bytes = len(body)
	var r response
	if err := json.Unmarshal(body, &r); err != nil {
		return s, b.logFail(st, err)
	}
	got, err := jsonAnswer(r.Cols, r.Rows)
	if err == nil {
		err = got.diff(b.oracle[i])
	}
	if err != nil {
		return s, b.logFail(st, fmt.Errorf("wrong answer: %w", err))
	}
	s.queueNS, s.compileNS, s.execNS, s.cached = r.Stats.QueueNS, r.Stats.CompileNS, r.Stats.ExecNS, r.Stats.Cached
	return s, nil
}

// logFail reports the first few failures on standard error.
func (b *serveBench) logFail(st statement, err error) error {
	if b.failLogs.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "wallbench: %q: %v\n", st.sql, err)
	}
	return err
}

// latency is one answered request as the end-to-end metrics need it.
type latency struct {
	d    time.Duration
	tmpl int
}

// phase is what the clients report from one timed phase.
type phase struct {
	lats    []latency
	elapsed time.Duration
	peakMB  float64 // peak live heap
	// hits and bytes total the plan-cache hits and response bytes.
	hits, bytes int64
}

// drive runs the closed-loop clients until the deadline. With rec set,
// every spanEvery-th answered request of each client is also recorded as
// spans.
func (b *serveBench) drive(deadline time.Time, rec *recorder) phase {
	per := make([][]latency, clients)
	for c := range per {
		per[c] = make([]latency, 0, int(b.cfg.seconds.Seconds()*latenciesPerClientSecond))
	}
	attempted := make([]int, clients)
	failed := make([]int, clients)
	hits := make([]int64, clients)
	bytes := make([]int64, clients)
	heap := startHeapSampler()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s, err := b.request(b.nextIndex())
				attempted[c]++
				if err != nil {
					failed[c]++
					continue
				}
				per[c] = append(per[c], latency{s.lat, s.tmpl})
				if s.cached {
					hits[c]++
				}
				bytes[c] += int64(s.bytes)
				if rec != nil && len(per[c])%spanEvery == 0 {
					recordRequest(rec, s)
				}
			}
		}(c)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start), peakMB: heap.finish()}
	for c := range per {
		p.lats = append(p.lats, per[c]...)
		p.hits += hits[c]
		p.bytes += bytes[c]
		b.res.attempted += attempted[c]
		b.res.failed += failed[c]
	}
	return p
}

// recordRequest records an answered request as spans: the client-timed
// request with the queue wait, compile and execution times the server
// reported, which run one after another inside it.
func recordRequest(rec *recorder, s sample) {
	qid := rec.newQuery()
	t0, t1 := rec.at(s.start), rec.at(s.start.Add(s.lat))
	root := rec.add(span{Query: qid, Name: "serve.request", Start: t0, End: t1})
	t := t0
	for _, part := range []struct {
		name string
		ns   int64
	}{{"serve.queue", s.queueNS}, {"serve.compile", s.compileNS}, {"serve.exec", s.execNS}} {
		rec.add(span{Parent: root, Query: qid, Name: part.name, Start: t, End: t + part.ns})
		t += part.ns
	}
}

func (b *serveBench) endToEnd() error {
	p := b.drive(time.Now().Add(b.cfg.seconds), nil)
	b.res.setN("peak_heap_mb", p.peakMB, 1)
	if len(p.lats) == 0 {
		return fmt.Errorf("no request succeeded")
	}

	var lats []float64
	byTmpl := make([][]float64, len(templates))
	for _, l := range p.lats {
		lats = append(lats, ms(l.d))
		byTmpl[l.tmpl] = append(byTmpl[l.tmpl], ms(l.d))
	}
	var meds []float64
	for t := range templates {
		meds = append(meds, median(byTmpl[t]))
		fmt.Fprintf(os.Stderr, "wallbench: %-24s median %.3f ms over %d requests\n",
			templates[t].name, median(byTmpl[t]), len(byTmpl[t]))
	}
	vs, err := b.vsHyper()
	if err != nil {
		return err
	}
	n := len(p.lats)
	b.res.setN("qps", float64(n)/p.elapsed.Seconds(), n)
	b.res.setN("p50_ms", median(lats), n)
	b.res.setN("p99_ms", quantile(lats, 0.99), n)
	b.res.setN("geomean_ms", geomean(meds), n)
	b.res.setN("vs_hyper", vs, pairRuns)
	return nil
}

// layers is the traced run: an HTTP phase with a share of its requests
// recorded as spans split by the server's own stats, then a fixed number
// of statements run in process through each layer's public entry point.
func (b *serveBench) layers() error {
	rec := newRecorder()

	pool0, allocs0 := b.srv.srv.PoolStats(), readAllocs()
	p := b.drive(time.Now().Add(b.cfg.seconds/2), rec)
	pool1, allocs := b.srv.srv.PoolStats(), readAllocs().sub(allocs0)
	lt, err := selfTimes(rec.spans)
	if err != nil {
		return fmt.Errorf("span accounting: %w", err)
	}
	if lt.count["serve.request"] == 0 {
		return fmt.Errorf("too few requests succeeded")
	}
	n := float64(len(p.lats))
	traced := float64(lt.count["serve.request"])
	b.res.set("serve.queue_us", float64(lt.self["serve.queue"])/1e3/traced)
	b.res.set("serve.compile_us", float64(lt.self["serve.compile"])/1e3/traced)
	b.res.set("serve.exec_us", float64(lt.self["serve.exec"])/1e3/traced)
	b.res.set("serve.other_us", float64(lt.self["serve.request"])/1e3/traced)
	b.res.set("serve.plan_cache_hit_ratio", float64(p.hits)/n)
	b.res.set("serve.response_bytes", float64(p.bytes)/n)
	if got := (pool1.Hits - pool0.Hits) + (pool1.Misses - pool0.Misses); got > 0 {
		b.res.set("vector.pool_hit_ratio", float64(pool1.Hits-pool0.Hits)/float64(got))
	}
	b.res.set("vector.alloc_bytes_per_query", float64(allocs.bytes)/n)
	b.res.set("vector.mallocs_per_query", float64(allocs.objects)/n)

	return b.inProcess(rec)
}

// inProcess runs inProcessStatements statements through sql.Parse,
// sql.Plan, rel.Engine.Prepare and RunPrepared on an engine configured as
// the server's: once untraced, once traced, once through the front-end
// probe, and once each on the interpreter and on hyper for reference.
func (b *serveBench) inProcess(rec *recorder) error {
	cat := b.srv.srv.Catalog()
	eng := &rel.Engine{Cat: cat, Backend: rel.Compiled, Pool: vector.NewPool(0)}
	interp := &rel.Engine{Cat: cat, Backend: rel.Interpreted}
	hy := &hyper.Engine{Cat: cat}
	fe := &frontEnd{units: inProcessStatements}
	var parse, plan, run, untraced, traced time.Duration
	comp := make([][]float64, len(templates))
	it := make([][]float64, len(templates))
	hyp := make([][]float64, len(templates))
	for k := 0; k < inProcessStatements; k++ {
		i := k % len(b.stmts)
		st := b.stmts[i]

		// Untraced and traced, in alternating order.
		runUntraced := func() error {
			t0 := time.Now()
			stmt, err := sql.Parse(st.sql)
			if err != nil {
				return err
			}
			t1 := time.Now()
			q, err := sql.Plan(stmt, cat)
			if err != nil {
				return err
			}
			t2 := time.Now()
			sr := &stepRunner{eng: eng}
			res, _, err := sr.Run(q)
			t3 := time.Now()
			b.check(i, res, err, cat)
			parse += t1.Sub(t0)
			plan += t2.Sub(t1)
			run += sr.run
			untraced += t3.Sub(t0)
			comp[st.tmpl] = append(comp[st.tmpl], ms(t3.Sub(t2)))
			return nil
		}
		if k%2 == 1 {
			if err := runUntraced(); err != nil {
				return err
			}
		}
		qid := rec.newQuery()
		t0 := time.Now()
		root := rec.add(span{Query: qid, Name: "query", Start: rec.at(t0)})
		stmt, err := sql.Parse(st.sql)
		if err != nil {
			return err
		}
		t1 := time.Now()
		rec.add(span{Parent: root, Query: qid, Name: "sql.parse", Start: rec.at(t0), End: rec.at(t1)})
		q, err := sql.Plan(stmt, cat)
		if err != nil {
			return err
		}
		t2 := time.Now()
		rec.add(span{Parent: root, Query: qid, Name: "sql.plan", Start: rec.at(t1), End: rec.at(t2)})
		res, _, err := (&stepRunner{eng: eng, rec: rec, query: qid, parent: root}).Run(q)
		t3 := time.Now()
		rec.end(root, t3)
		traced += t3.Sub(t0)
		b.check(i, res, err, cat)
		if k%2 == 0 {
			if err := runUntraced(); err != nil {
				return err
			}
		}

		// The front-end probe, then the reference engines.
		res, _, err = (&probeRunner{eng: eng, fe: fe}).Run(q)
		b.check(i, res, err, cat)
		t0 = time.Now()
		res, _, err = interp.Run(q)
		t1 = time.Now()
		b.check(i, res, err, cat)
		t2 = time.Now()
		res, _, err = hy.Run(q)
		t3 = time.Now()
		b.check(i, res, err, cat)
		it[st.tmpl] = append(it[st.tmpl], ms(t1.Sub(t0)))
		hyp[st.tmpl] = append(hyp[st.tmpl], ms(t3.Sub(t2)))
	}

	n := float64(inProcessStatements)
	b.res.set("sql.parse_us", float64(parse.Nanoseconds())/1e3/n)
	b.res.set("sql.plan_us", float64(plan.Nanoseconds())/1e3/n)
	b.res.set("exec.run_ms", ms(run)/n)
	b.res.set("trace.overhead_ratio", float64(traced)/float64(untraced))
	var itMeds, hyMeds []float64
	slower := 0
	for t := range templates {
		itMeds = append(itMeds, median(it[t]))
		hyMeds = append(hyMeds, median(hyp[t]))
		if median(comp[t]) > median(it[t]) {
			slower++
		}
	}
	b.res.set("interp.geomean_ms", geomean(itMeds))
	b.res.set("hyper.geomean_ms", geomean(hyMeds))
	b.res.set("exec.slower_than_interp", float64(slower))
	return reportLayers(b.res, b.cfg, rec, fe, n, n)
}

// check counts one in-process answer to statement i, which is right when
// the run succeeded and its result matches the oracle.
func (b *serveBench) check(i int, res *rel.Result, err error, cat *storage.Catalog) {
	b.res.attempted++
	if err == nil {
		err = decodedAnswer(res, cat).diff(b.oracle[i])
	}
	if err != nil {
		b.res.failed++
		b.logFail(b.stmts[i], err)
	}
}
