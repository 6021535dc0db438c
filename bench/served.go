package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	api "sigfile/api/v1"
	"sigfile/client"
)

// The served workloads drive a real sigfiled child process over loopback
// with cfg.clients closed-loop clients, one connection each. The tenant
// is preloaded over the wire, one acknowledged insert at a time, so N is
// what three set-ups per run can afford; V shrinks with it.
const (
	servedN       = 1000
	servedInserts = 1000 // acknowledged inserts timed after a read window

	// The mixed workload's writer makes mixedWarmInserts inserts during
	// the warm-up — a count, not a stretch of time, so the window opens on
	// the same LSM state on every run — and pages_written_per_insert is
	// taken over the window's first ucInserts acknowledged inserts: four
	// memtable flushes and the compaction they trigger, the same work on
	// every run, where the whole window's share of a flush cycle depends
	// on how fast the machine was.
	mixedWarmInserts = 256
	ucInserts        = 1024

	tenantName     = "bench"
	checkpointFlag = "2s"
	flushPolicy    = "sigfiled group commit: one WAL fsync per write-queue batch, every insert acknowledged after it"
)

// daemon is one sigfiled child process.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	binAddr  string
	exited   chan struct{}
	waitErr  error
}

// freePorts asks the kernel for two unused loopback ports. Both
// listeners are held until both ports are known, so they differ.
func freePorts() (string, string, error) {
	a, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	defer a.Close()
	b, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	defer b.Close()
	return a.Addr().String(), b.Addr().String(), nil
}

// startDaemon starts sigfiled on dataDir and waits until it serves. A
// port can be taken between freePorts and the daemon's bind, so a daemon
// that dies while starting is started again on fresh ports.
func startDaemon(cfg *config, dataDir string) (*daemon, error) {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		var d *daemon
		if d, err = startDaemonOnce(cfg, dataDir); err == nil {
			return d, nil
		}
	}
	return nil, err
}

func startDaemonOnce(cfg *config, dataDir string) (*daemon, error) {
	httpAddr, binAddr, err := freePorts()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(cfg.runDir, "sigfiled.log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child keeps its own descriptor
	d := &daemon{httpAddr: httpAddr, binAddr: binAddr, exited: make(chan struct{})}
	d.cmd = exec.Command(sigfiledBin, "-data", dataDir, "-addr", httpAddr, "-binary-addr", binAddr, "-checkpoint", checkpointFlag)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sigfiled: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	// Reopening a data dir replays its WAL before the listener opens, so
	// the health probe doubles as "recovery finished".
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + httpAddr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			said, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("sigfiled exited during start-up: %v: %s", d.waitErr, said)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("sigfiled did not answer /healthz within 30 s")
		}
	}
}

// kill is SIGKILL: no drain, no checkpoint. It returns once the process
// has been reaped.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// terminate is the graceful stop: SIGTERM, drain, final checkpoint. The
// daemon must exit 0.
func (d *daemon) terminate() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
		if d.waitErr != nil {
			return fmt.Errorf("sigfiled after SIGTERM: %w", d.waitErr)
		}
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("sigfiled ignored SIGTERM for 60 s")
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) scrape() (promSamples, error) {
	resp, err := http.Get("http://" + d.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// dial opens one client of the workload's protocol.
func (d *daemon) dial(binary bool) *client.Client {
	if binary {
		return client.Dial(d.binAddr)
	}
	return client.New("http://" + d.httpAddr)
}

// servedSpec is what differs between the served workloads.
type servedSpec struct {
	binary bool
	tenant api.TenantConfig
	mixed  bool // client 0 inserts during the window and the daemon is SIGKILLed at its end
}

type servedEnv struct {
	spec    servedSpec
	dataDir string
	d       *daemon
	inst    *instance
	qs      []query
	oids    []uint64 // oids[i] is the OID the server gave object i
}

// close stops the daemon if it still runs; its data directory goes with
// the run's.
func (e *servedEnv) close() {
	if e.d != nil {
		e.d.kill()
	}
}

// buildServed is one complete set-up: generate, start the daemon, create
// the tenant, preload it over the wire with cfg.clients connections,
// then stop the daemon gracefully (its final checkpoint) and start it
// again, so the window runs against a recovered process and an empty log.
func buildServed(cfg *config, spec servedSpec) (*servedEnv, error) {
	inst := genInstance(cfg.seed, servedN)
	e := &servedEnv{spec: spec, inst: inst, qs: genQueries(cfg.seed, inst, streamLen), oids: make([]uint64, servedN)}
	var err error
	if e.dataDir, err = os.MkdirTemp(cfg.runDir, "data-"); err != nil {
		return nil, err
	}
	fail := func(err error) (*servedEnv, error) { e.close(); return nil, err }
	if e.d, err = startDaemon(cfg, e.dataDir); err != nil {
		return fail(err)
	}
	ctx := context.Background()
	admin := e.d.dial(false)
	_, err = admin.CreateTenant(ctx, tenantName, spec.tenant)
	admin.Close()
	if err != nil {
		return fail(fmt.Errorf("create tenant: %w", err))
	}
	errs := make([]error, cfg.clients)
	var wg sync.WaitGroup
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := e.d.dial(spec.binary)
			defer c.Close()
			for i := w; i < servedN; i += cfg.clients {
				if e.oids[i], errs[w] = c.Insert(ctx, tenantName, inst.sets[i]); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fail(fmt.Errorf("preload: %w", err))
	}
	if err := e.restart(cfg); err != nil {
		return fail(err)
	}
	return e, nil
}

func (e *servedEnv) restart(cfg *config) error {
	err := e.d.terminate()
	e.d = nil
	if err != nil {
		return err
	}
	e.d, err = startDaemon(cfg, e.dataDir)
	return err
}

func wirePred(op opKind) string {
	if op == opSubset {
		return api.PredSubset
	}
	return api.PredSuperset
}

// servedClient is one load-generating goroutine's state.
type servedClient struct {
	c   *client.Client
	rec *recorder
	tr  *tracer
}

func (e *servedEnv) search(sc *servedClient, q query) (start time.Time, dur time.Duration, ok bool) {
	rec, tr := sc.rec, sc.tr
	rec.attempted++
	traced := tr != nil && tr.on.Load()
	if traced {
		tr.begin(q.op, rec.attempted)
	}
	start = time.Now()
	resp, err := sc.c.Search(context.Background(), tenantName, wirePred(q.op), q.elems, nil)
	dur = time.Since(start)
	if traced {
		if err == nil {
			// The server reports how long its engine took; where in the
			// round trip that time lay is not observable from here, so
			// the child span is centred in its parent.
			engine := resp.ElapsedUS * 1e3
			if engine > int64(dur) {
				engine = int64(dur)
			}
			from := tr.opStart + (int64(dur)-engine)/2
			tr.child("server.engine", from, from+engine)
		}
		tr.end()
	}
	switch {
	case err != nil:
		rec.fail("%v request: %v", q.op, err)
	case resp.Stats == nil:
		rec.fail("%v request: no page statistics (plan %q)", q.op, resp.Plan)
	default:
		if msg := checkResult(resp.OIDs, e.oids[q.planted]); msg != "" {
			rec.fail("%v request: %s", q.op, msg)
			break
		}
		return start, dur, true
	}
	return start, dur, false
}

// gate is the gate pass, from one client, before any concurrent insert
// can change an answer or a page count.
func (e *servedEnv) gate(c *client.Client, rec *recorder) {
	gatePass(rec, e.qs, e.inst.sets, func(i int) uint64 { return e.oids[i] },
		func(q query) ([]uint64, int64, error) {
			resp, err := c.Search(context.Background(), tenantName, wirePred(q.op), q.elems, nil)
			if err != nil {
				return nil, 0, err
			}
			if resp.Stats == nil {
				return nil, 0, fmt.Errorf("no page statistics (plan %q)", resp.Plan)
			}
			return resp.OIDs, resp.Stats.TotalPages, nil
		})
}

// acked is one acknowledged insert.
type acked struct {
	oid uint64
	set []string
}

// inserter issues acknowledged inserts from sets, cyclically, until stop
// is set or n have been made (n ≤ 0: no limit), and calls atMark, if
// set, between the ucInserts-th acknowledgement and the next insert.
// After dying is set an error is the SIGKILL showing, not a failed
// operation.
type inserter struct {
	sc     *servedClient
	sets   [][]string
	atMark func()
	acks   []acked
	ackedN atomic.Int64
	stop   atomic.Bool
	dying  atomic.Bool
}

func (in *inserter) run(begin time.Time, n int) {
	rec, tr := in.sc.rec, in.sc.tr
	for i := 0; (n <= 0 || i < n) && !in.stop.Load(); i++ {
		set := in.sets[i%len(in.sets)]
		rec.attempted++
		traced := tr != nil && tr.on.Load()
		if traced {
			tr.begin(opInsert, rec.attempted)
		}
		start := time.Now()
		oid, err := in.sc.c.Insert(context.Background(), tenantName, set)
		dur := time.Since(start)
		if traced {
			tr.end()
		}
		if err != nil {
			if in.dying.Load() {
				rec.attempted-- // never acknowledged: not an operation of the window
				return
			}
			rec.fail("insert: %v", err)
			continue
		}
		in.acks = append(in.acks, acked{oid: oid, set: set})
		rec.ok(opInsert, begin, start, dur)
		if in.ackedN.Add(1) == ucInserts && in.atMark != nil {
			in.atMark()
		}
	}
}

// readBack re-queries every acknowledged insert — a ⊇ search for the
// inserted set itself, which must return the acknowledged OID —
// split over the clients. It returns how many were not found.
func (e *servedEnv) readBack(cfg *config, acks []acked, rec *recorder) int64 {
	recs := make([]*recorder, cfg.clients)
	var wg sync.WaitGroup
	for w := 0; w < cfg.clients; w++ {
		recs[w] = newRecorder()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := e.d.dial(e.spec.binary)
			defer c.Close()
			for i := w; i < len(acks); i += cfg.clients {
				recs[w].attempted++
				resp, err := c.Search(context.Background(), tenantName, api.PredSuperset, acks[i].set, nil)
				if err != nil {
					recs[w].fail("read back OID %d: %v", acks[i].oid, err)
				} else if msg := checkResult(resp.OIDs, acks[i].oid); msg != "" {
					recs[w].fail("read back OID %d: %s", acks[i].oid, msg)
				}
			}
		}(w)
	}
	wg.Wait()
	var lost int64
	for _, r := range recs {
		lost += r.failed
		rec.merge(r)
	}
	return lost
}

// servedRun is the state of one served run after set-up.
type servedRun struct {
	cfg     *config
	env     *servedEnv
	clients []*servedClient
	next    []int // each client's position in the query stream

	// The mixed workload's writer: client 0.
	ins        *inserter
	insDone    chan struct{}
	insertSets [][]string
	acks       []acked // every insert acknowledged so far, warm-up included
}

// seek puts every client at the start of its share of the stream, plus
// off.
func (r *servedRun) seek(off int) {
	for w := range r.next {
		r.next[w] = w*len(r.env.qs)/len(r.next) + off
	}
}

// startInserter starts client 0 inserting: n inserts, or until stopped
// when n is 0.
func (r *servedRun) startInserter(begin time.Time, n int, atMark func()) {
	r.ins = &inserter{sc: r.clients[0], sets: r.insertSets, atMark: atMark}
	r.insDone = make(chan struct{})
	go func(in *inserter, done chan struct{}) { in.run(begin, n); close(done) }(r.ins, r.insDone)
}

// waitInserter returns when the inserter has made its n inserts or
// stopped.
func (r *servedRun) waitInserter() {
	<-r.insDone
	r.acks = append(r.acks, r.ins.acks...)
}

func (r *servedRun) stopInserter() {
	r.ins.stop.Store(true)
	r.waitInserter()
}

// ops is how many operations have completed so far. It may be called
// while the load runs only between phases: the searching clients are
// idle then, and the inserter's count is atomic.
func (r *servedRun) ops() int64 {
	var n int64
	for w, sc := range r.clients {
		if r.ins == nil || w != 0 {
			n += sc.rec.ops()
		}
	}
	if r.ins != nil {
		n += r.ins.ackedN.Load()
	}
	return n
}

// phase runs the searching clients for d, each walking its own part of
// the stream, and returns the time it took. In the mixed workload client
// 0 is the inserter, which runs across phases.
func (r *servedRun) phase(begin time.Time, d time.Duration) time.Duration {
	start := time.Now()
	until := start.Add(d)
	var wg sync.WaitGroup
	for w, sc := range r.clients {
		if r.env.spec.mixed && w == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, sc *servedClient) {
			defer wg.Done()
			for time.Now().Before(until) {
				q := r.env.qs[r.next[w]%len(r.env.qs)]
				r.next[w]++
				if start, dur, ok := r.env.search(sc, q); ok {
					sc.rec.ok(q.op, begin, start, dur)
				}
			}
		}(w, sc)
	}
	wg.Wait()
	return time.Since(start)
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// setUpServed does the run's set-ups and leaves the last one standing.
func setUpServed(cfg *config, spec servedSpec, out *outcome) (*servedEnv, error) {
	var env *servedEnv
	var setups []float64
	for len(setups) < cfg.setups() {
		if env != nil {
			env.close()
		}
		settle()
		start := time.Now()
		var err error
		if env, err = buildServed(cfg, spec); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.setups = setups
	out.e2e["setup_s"] = median(setups)
	// The set-up ended with a graceful stop, so the tenant's directory is
	// its checkpointed state and nothing else: that is the storage cost,
	// the same for a seed on every run.
	size, err := dirBytes(filepath.Join(env.dataDir, tenantName))
	if err != nil {
		env.close()
		return nil, err
	}
	out.e2e["stored_bytes_per_user_byte"] = float64(size) / float64(env.inst.userBytes)
	return env, nil
}

func runServed(cfg *config, spec servedSpec) (*outcome, error) {
	out := newOutcome()
	env, err := setUpServed(cfg, spec, out)
	if err != nil {
		return nil, err
	}
	defer env.close()
	windowGC()

	r := &servedRun{cfg: cfg, env: env, clients: make([]*servedClient, cfg.clients), next: make([]int, cfg.clients)}
	if spec.mixed {
		r.insertSets = genInserts(cfg.seed, env.inst, 1<<14)
	}
	for w := range r.clients {
		r.clients[w] = &servedClient{c: env.d.dial(spec.binary), rec: newRecorder()}
		defer r.clients[w].c.Close()
		if cfg.trace {
			keep := 0
			if w == cfg.clients-1 { // a searching client in every workload
				keep = keptOps
			}
			r.clients[w].tr = newTracer(keep)
		}
	}

	// The warm-up is the gate pass and then, for what is left of its time,
	// the window's own traffic mix with its samples dropped. It walks the
	// stream from a quarter in, the window from the start of each client's
	// share, so the window's first searches are the same on every run.
	total := newRecorder()
	warmEnd := time.Now().Add(cfg.warmup())
	env.gate(r.clients[0].c, total)
	total.pageMetrics(out.e2e)
	r.seek(len(env.qs) / 4)
	if spec.mixed {
		r.startInserter(time.Now(), mixedWarmInserts, nil)
	}
	r.phase(time.Now(), time.Until(warmEnd))
	if spec.mixed {
		r.waitInserter()
		r.ins = nil
	}
	for _, sc := range r.clients {
		sc.rec = newRecorder()
	}
	r.seek(0)

	before, err := env.d.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(env.d.pid())
	if err != nil {
		return nil, err
	}
	selfCPU0 := selfCPU()
	windowStart := time.Now()
	var atMark promSamples
	var markErr error
	if spec.mixed {
		r.startInserter(windowStart, 0, func() { atMark, markErr = env.d.scrape() })
	}
	var elapsed time.Duration
	var plainRate, tracedRate float64
	if cfg.trace {
		var ops [2]int64
		var ran [2]time.Duration
		var done int64
		for i := 0; i < traceSlices; i++ {
			traced := i % 2
			for _, sc := range r.clients {
				sc.tr.on.Store(traced == 1)
			}
			d := r.phase(windowStart, cfg.window()/traceSlices)
			now := r.ops()
			ops[traced] += now - done
			ran[traced] += d
			done = now
			elapsed += d
		}
		plainRate, tracedRate = float64(ops[0])/ran[0].Seconds(), float64(ops[1])/ran[1].Seconds()
	} else {
		elapsed = r.phase(windowStart, cfg.window())
	}
	// In the mixed workload inserts are still in flight from here to the
	// kill; the window's are those that began before it closed.
	cpu1, err := procCPU(env.d.pid())
	if err != nil {
		return nil, err
	}
	clientCPU := selfCPU() - selfCPU0
	rss, err := peakRSSMiB(env.d.pid())
	if err != nil {
		return nil, err
	}
	after, err := env.d.scrape()
	if err != nil {
		return nil, err
	}
	var ackedAtScrape int64
	if spec.mixed {
		ackedAtScrape = r.ins.ackedN.Load()
		// SIGKILL with inserts in flight, then restart on the same data
		// dir: every insert the dead daemon acknowledged must be there.
		r.ins.dying.Store(true)
		env.d.kill()
		r.stopInserter()
		d, err := startDaemon(cfg, env.dataDir)
		env.d = d
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		if markErr != nil {
			return nil, markErr
		}
		ins := r.clients[0].rec.samples[opInsert]
		n := sort.Search(len(ins), func(i int) bool { return ins[i].at >= int64(elapsed) })
		r.clients[0].rec.samples[opInsert] = ins[:n]
	}
	for _, sc := range r.clients {
		total.merge(sc.rec)
	}
	out.windowMetrics(total, elapsed, cpu1-cpu0)
	out.e2e["peak_rss_mb"] = rss
	out.extras["client.cpu_ms_per_op"] = clientCPU.Seconds() * 1e3 / float64(total.ops())
	if cfg.trace {
		tr := r.clients[cfg.clients-1].tr
		for _, sc := range r.clients[:cfg.clients-1] {
			tr.absorb(sc.tr)
		}
		out.traceMetrics(tr, tracedRate, plainRate)
		out.registryMetrics(before, after)
		out.servedLayers(before, after, total)
	}

	const writes = "sigfile_pagestore_writes_total"
	if spec.mixed {
		total.latencyMetrics(out.e2e, elapsed, opInsert)
		if atMark != nil {
			out.e2e["pages_written_per_insert"] = atMark.delta(before, writes) / ucInserts
		} else { // a window too short for ucInserts: what it did hold
			out.e2e["pages_written_per_insert"] = after.delta(before, writes) / float64(ackedAtScrape)
		}
	} else {
		// The write side of a read workload: acknowledged inserts from one
		// client on the otherwise idle daemon.
		in := &inserter{sc: &servedClient{c: r.clients[0].c, rec: total}, sets: genInserts(cfg.seed, env.inst, servedInserts)}
		settle()
		b, err := env.d.scrape()
		if err != nil {
			return nil, err
		}
		begin := time.Now()
		in.run(begin, servedInserts)
		total.latencyMetrics(out.e2e, time.Since(begin), opInsert)
		a, err := env.d.scrape()
		if err != nil {
			return nil, err
		}
		if len(in.acks) > 0 {
			out.e2e["pages_written_per_insert"] = a.delta(b, writes) / float64(len(in.acks))
		}
		r.acks = in.acks
	}
	out.extras["acked_writes_checked"] = float64(len(r.acks))
	out.extras["acked_writes_lost"] = float64(env.readBack(cfg, r.acks, total))

	out.absorb(total)
	// Stop gracefully: a daemon that cannot drain and exit 0 is a failure
	// of the run even when every answer was right.
	err = env.d.terminate()
	env.d = nil
	return out, err
}
