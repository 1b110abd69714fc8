package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	vod "repro"
	"repro/internal/scenario"
)

const (
	// daemonSetups fresh daemons are started; setup_s is the median time
	// from process start to the first successful /healthz.
	daemonSetups = 9
	// daemonWarmup rounds run before the timed phase (longer than T=40).
	daemonWarmup = 50
	// scrapeEvery and checkpointEvery are the client's cadences for
	// GET /metrics and POST /checkpoint, in rounds.
	scrapeEvery     = 10
	checkpointEvery = 250
)

var stepBody = []byte(`{"rounds":1}`)

// daemon is one running vodserve process and the single keep-alive
// connection the client talks to it over.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	log    *daemonLog
}

// daemonLog receives the daemon's standard error. It keeps the last lines
// for error reports and, when the runtime's GC trace is on, the stop-the-
// world pause of every collection.
type daemonLog struct {
	mu      sync.Mutex
	partial []byte
	tail    []string
	pauses  []float64 // ms per GC cycle, in order
}

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, p...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			break
		}
		line := string(l.partial[:i])
		l.partial = l.partial[i+1:]
		if pause, ok := gcPause(line); ok {
			l.pauses = append(l.pauses, pause)
			continue
		}
		l.tail = append(l.tail, line)
		if len(l.tail) > 20 {
			l.tail = l.tail[1:]
		}
	}
	return len(p), nil
}

// gcCount returns the number of GC cycles seen so far.
func (l *daemonLog) gcCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pauses)
}

func (l *daemonLog) gcPauses(from, to int) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	sum := 0.0
	for _, p := range l.pauses[from:min(to, len(l.pauses))] {
		sum += p
	}
	return sum
}

func (l *daemonLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.tail, "\n")
}

// gcPause parses a GODEBUG=gctrace=1 line,
//
//	gc 7 @1.234s 2%: 0.021+1.5+0.030 ms clock, ...
//
// and returns its two stop-the-world phases (the first and last of the
// wall-clock triple) in ms.
func gcPause(line string) (float64, bool) {
	if !strings.HasPrefix(line, "gc ") {
		return 0, false
	}
	_, rest, ok := strings.Cut(line, "%: ")
	if !ok {
		return 0, false
	}
	clock, _, ok := strings.Cut(rest, " ")
	if !ok {
		return 0, false
	}
	parts := strings.Split(clock, "+")
	if len(parts) != 3 {
		return 0, false
	}
	a, err1 := strconv.ParseFloat(parts[0], 64)
	c, err2 := strconv.ParseFloat(parts[2], 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return a + c, true
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// startDaemon starts vodserve with args and waits until it answers
// /healthz; it returns the seconds from process start to that answer.
func startDaemon(bin string, args []string, gctrace bool) (*daemon, float64, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{
		base:   "http://127.0.0.1:" + port,
		exited: make(chan struct{}),
		log:    &daemonLog{},
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
	d.cmd = exec.Command(bin, append(args, "-addr", "127.0.0.1:"+port)...)
	d.cmd.Stderr = d.log
	if gctrace {
		d.cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start vodserve: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is reported through d.log
		close(d.exited)
	}()
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start).Seconds(), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("vodserve exited before it was healthy:\n%s", d.log)
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > time.Minute {
			d.stop()
			return nil, 0, errors.New("vodserve not healthy after a minute")
		}
	}
}

// stop ends the daemon with SIGTERM (SIGKILL after ten seconds) and waits
// for it to exit.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// call sends one request and returns the reply body; a transport error or
// a status other than 200 is an error.
func (d *daemon) call(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// stepReply is the daemon's POST /step reply for one round.
type stepReply struct {
	Round     int            `json:"round"`
	Stepped   int            `json:"stepped"`
	Matched   int            `json:"matched"`
	Unmatched int            `json:"unmatched"`
	Last      vod.StepResult `json:"last"`
}

// checkStepReply holds for every /step reply: it reports exactly the one
// round the client asked for, and that round meets the per-round checks
// that need no view of the engine.
func checkStepReply(r stepReply, round int) error {
	if r.Round != round || r.Stepped != 1 || r.Last.Round != round {
		return fmt.Errorf("/step reply for round %d reports round %d (last %d), %d stepped", round, r.Round, r.Last.Round, r.Stepped)
	}
	if r.Matched != r.Last.Matched || r.Unmatched != r.Last.Unmatched {
		return fmt.Errorf("round %d: /step totals %d/%d differ from the round's %d/%d", round, r.Matched, r.Unmatched, r.Last.Matched, r.Last.Unmatched)
	}
	if got := r.Last.Admitted + r.Last.RejectedBusy + r.Last.RejectedSwarm; got != r.Last.Demanded {
		return fmt.Errorf("round %d: admitted and rejected %d, demanded %d", round, got, r.Last.Demanded)
	}
	return checkAboveThreshold(r.Last)
}

type demandIn struct {
	Box   int `json:"box"`
	Video int `json:"video"`
}

// daemonRun is the client side of one daemon-zipf run.
type daemonRun struct {
	o       options
	d       *daemon
	corpus  [][]vod.Demand // demands of round r at index r-1
	boxes   int
	ckpt    string
	checks  *checkLog
	tr      *tracer
	res     *result
	sent    int64
	round   int
	last    vod.StepResult
	lastM   daemonMetrics
	replies [][]byte // /step replies of every round, kept for the shadow run

	// Rounds since the last checkpoint: their /demand bodies and /step
	// replies, replayed on the restored daemon.
	tailBodies, tailReplies [][]byte

	stepMs, demandMs, metricsMs, ckptMs []float64
	ckptBytes                           float64
	live                                []float64
}

// doRound sends round r's demands and steps the daemon, then scrapes
// and checkpoints on the client's cadence. Timings are kept when timed;
// spans when traced.
func (r *daemonRun) doRound(timed, traced bool) error {
	r.round++
	batch := make([]demandIn, 0, 512)
	if r.round <= len(r.corpus) {
		for _, d := range r.corpus[r.round-1] {
			batch = append(batch, demandIn{Box: d.Box, Video: int(d.Video)})
		}
	}
	body, err := json.Marshal(map[string][]demandIn{"demands": batch})
	if err != nil {
		return err
	}
	tr := r.tr
	if !traced {
		tr = nil
	}
	t0 := time.Now()
	root := tr.add("round", t0, t0, -1)

	r.res.Attempted++
	if _, err := r.d.call("POST", "/demand", body); err != nil {
		r.res.Failed++
		return err
	}
	t1 := time.Now()
	r.sent += int64(len(batch))
	r.res.Attempted++
	reply, err := r.d.call("POST", "/step", stepBody)
	if err != nil {
		r.res.Failed++
		return err
	}
	t2 := time.Now()
	tr.add("http.demand", t0, t1, root)
	tr.add("http.step", t1, t2, root)
	if timed {
		r.demandMs = append(r.demandMs, ms(t1.Sub(t0)))
		r.stepMs = append(r.stepMs, ms(t2.Sub(t1)))
	}
	var sr stepReply
	if err := json.Unmarshal(reply, &sr); err != nil {
		return fmt.Errorf("decode /step reply: %w", err)
	}
	r.checks.add(checkStepReply(sr, r.round))
	r.last = sr.Last
	if r.o.trace {
		r.replies = append(r.replies, mustJSON(sr.Last))
	}
	r.tailBodies = append(r.tailBodies, body)
	r.tailReplies = append(r.tailReplies, reply)

	if r.round%scrapeEvery == 0 {
		t3 := time.Now()
		if err := r.scrape(); err != nil {
			return err
		}
		t4 := time.Now()
		tr.add("http.metrics", t3, t4, root)
		if timed {
			r.metricsMs = append(r.metricsMs, ms(t4.Sub(t3)))
		}
	}
	if r.round%checkpointEvery == 0 {
		t3 := time.Now()
		if err := r.checkpoint(); err != nil {
			return err
		}
		t4 := time.Now()
		tr.add("http.checkpoint", t3, t4, root)
		if timed {
			r.ckptMs = append(r.ckptMs, ms(t4.Sub(t3)))
		}
	}
	if tr != nil {
		tr.spans[root].End = time.Since(tr.epoch).Nanoseconds()
	}
	return nil
}

func (r *daemonRun) scrape() error {
	r.res.Attempted++
	b, err := r.d.call("GET", "/metrics", nil)
	if err != nil {
		r.res.Failed++
		return err
	}
	var m daemonMetrics
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("decode /metrics: %w", err)
	}
	r.checks.add(checkDaemonMetrics(m, r.round, r.sent, r.boxes, r.last))
	r.lastM = m
	r.live = append(r.live, float64(m.LiveRequests))
	return nil
}

func (r *daemonRun) checkpoint() error {
	r.res.Attempted++
	body, err := json.Marshal(map[string]string{"path": r.ckpt})
	if err != nil {
		return err
	}
	b, err := r.d.call("POST", "/checkpoint", body)
	if err != nil {
		r.res.Failed++
		return err
	}
	var reply struct {
		Bytes int64 `json:"bytes"`
		Round int   `json:"round"`
	}
	if err := json.Unmarshal(b, &reply); err != nil {
		return fmt.Errorf("decode /checkpoint reply: %w", err)
	}
	if reply.Round != r.round || reply.Bytes <= 0 {
		r.checks.add(fmt.Errorf("checkpoint at round %d reports round %d, %d bytes", r.round, reply.Round, reply.Bytes))
	}
	r.ckptBytes = float64(reply.Bytes)
	r.tailBodies, r.tailReplies = nil, nil
	return nil
}

func runDaemon(o options) (*result, error) {
	probe, err := startProbe()
	if err != nil {
		return nil, err
	}
	specPath := filepath.Join(o.root, "vodperf", "daemon-zipf.yaml")
	sc, err := scenario.ParseFile(specPath)
	if err != nil {
		return nil, err
	}
	seed := o.seed
	if seed == 0 {
		seed = sc.Seed
	}
	ex, err := scenario.Expand(sc, seed)
	if err != nil {
		return nil, err
	}
	corpus := make([][]vod.Demand, sc.TotalRounds())
	for _, e := range ex.Trace.Events {
		corpus[e.Round-1] = append(corpus[e.Round-1], vod.Demand{Box: e.Box, Video: e.Video})
	}
	dir := filepath.Join(o.root, ".bench_build", "run", fmt.Sprintf("daemon-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	args := []string{"-scenario", specPath, "-seed", strconv.FormatUint(seed, 10)}

	var setups []float64
	var d *daemon
	for i := 0; i < daemonSetups; i++ {
		if d != nil {
			d.stop()
		}
		var secs float64
		d, secs, err = startDaemon(o.vodserve, args, o.trace)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	defer func() { d.stop() }()

	run := &daemonRun{o: o, d: d, corpus: corpus, boxes: ex.VodSpec.Boxes, ckpt: filepath.Join(dir, "state.vodckpt"),
		checks: &checkLog{}, res: &result{Metrics: map[string]metric{}}}
	if o.trace {
		run.tr = newTracer()
	}
	for i := 0; i < daemonWarmup; i++ {
		if err := run.doRound(false, false); err != nil {
			return nil, err
		}
	}

	if err := run.scrape(); err != nil {
		return nil, err
	}
	m0 := run.lastM
	gc0 := d.log.gcCount()
	var tracedMs, untracedMs []float64
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	for n := 0; n < minTimedRounds || time.Since(start) < budget; n++ {
		if run.round == len(corpus) {
			fmt.Fprintf(stderr, "daemon-zipf: corpus ends at round %d, timed phase cut short\n", run.round)
			break
		}
		traced := o.trace && (n/traceBlock)%2 == 0
		if err := run.doRound(true, traced); err != nil {
			return nil, err
		}
		if traced {
			tracedMs = append(tracedMs, run.stepMs[len(run.stepMs)-1])
		} else {
			untracedMs = append(untracedMs, run.stepMs[len(run.stepMs)-1])
		}
	}
	elapsed := time.Since(start)
	timed := len(run.stepMs)
	gc1 := d.log.gcCount()
	if err := run.scrape(); err != nil {
		return nil, err
	}
	m1 := run.lastM
	rss, err := peakRSS(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "daemon-zipf: %d timed rounds in %.1fs, %d demands sent\n", timed, elapsed.Seconds(), run.sent)

	// Step past the last checkpoint, then restart from it and replay.
	for i := 0; i < tailRounds; i++ {
		if err := run.doRound(false, false); err != nil {
			return nil, err
		}
	}
	stepped := run.round
	d.stop()
	restoreS, err := run.restoreCheck()
	if err != nil {
		return nil, err
	}

	res := run.res
	if !o.trace {
		if err := probe.finish(); err != nil {
			return nil, err
		}
		res.Correct = run.checks.ok()
		res.put("setup_s", percentile(setups, 0.5), "s")
		res.put("round_ms_p50", percentile(run.stepMs, 0.5), "ms")
		res.put("demand_ms_p50", percentile(run.demandMs, 0.5), "ms")
		res.put("peak_rss_mb", rss, "MiB")
		return res, nil
	}

	shadow, err := run.shadow(ex.VodSpec, stepped)
	if err != nil {
		return nil, err
	}
	if err := probe.finish(); err != nil {
		return nil, err
	}
	res.Correct = run.checks.ok()
	engineMs := 1e3 * (float64(m1.SteppedRounds)/m1.RoundsPerSec - float64(m0.SteppedRounds)/m0.RoundsPerSec) /
		float64(m1.SteppedRounds-m0.SteppedRounds)
	allocs := float64(m1.AllocsPerRound)*float64(m1.SteppedRounds) - float64(m0.AllocsPerRound)*float64(m0.SteppedRounds)
	res.put("loop.rounds_per_s", float64(timed)/elapsed.Seconds(), "1/s")
	res.put("tail.round_ms_p90", percentile(run.stepMs, 0.9), "ms")
	res.put("tail.round_ms_p99", percentile(run.stepMs, 0.99), "ms")
	res.put("tail.demand_ms_p90", percentile(run.demandMs, 0.9), "ms")
	res.put("tail.demand_ms_p99", percentile(run.demandMs, 0.99), "ms")
	res.put("core.pre_admit_ms_p50", percentile(shadow.preAdmitMs, 0.5), "ms")
	res.put("core.admit_match_ms_p50", percentile(shadow.admitMatchMs, 0.5), "ms")
	res.put("core.admit_match_ms_p99", percentile(shadow.admitMatchMs, 0.99), "ms")
	res.put("core.live_requests_mean", mean(run.live), "count")
	res.put("core.demanded", float64(m1.Demands-m0.Demands), "count")
	res.put("core.admitted", float64(m1.Admitted-m0.Admitted), "count")
	res.put("core.rejected_busy", float64(m1.RejectedBusy-m0.RejectedBusy), "count")
	res.put("core.rejected_swarm", float64(m1.RejectedSwarm-m0.RejectedSwarm), "count")
	res.put("core.completed_viewings", float64(m1.Completed-m0.Completed), "count")
	res.put("bipartite.matched_mean", shadow.matchedMean, "count")
	res.put("bipartite.unmatched_total", float64(m1.Stalls-m0.Stalls), "count")
	res.put("bipartite.obstruction_rounds", float64(shadow.obstructions), "count")
	res.put("bipartite.violator_requests_mean", mean(shadow.violReq), "count")
	res.put("bipartite.violator_boxes_mean", mean(shadow.violBoxes), "count")
	res.put("bipartite.stall_round_ms_p50", percentile(shadow.stallMs, 0.5), "ms")
	res.put("swarm.max_size", float64(shadow.maxSwarm), "count")
	res.put("swarm.peak_requests", float64(shadow.peakRequests), "count")
	res.put("serve.engine_ms_mean", engineMs, "ms")
	res.put("serve.step_overhead_ms_mean", mean(run.stepMs)-engineMs, "ms")
	res.put("serve.metrics_ms_p50", percentile(run.metricsMs, 0.5), "ms")
	res.put("serve.metrics_ms_max", percentile(run.metricsMs, 1), "ms")
	res.put("ckpt.save_ms", percentile(run.ckptMs, 0.5), "ms")
	res.put("ckpt.bytes", run.ckptBytes, "bytes")
	res.put("ckpt.restore_s", restoreS, "s")
	res.put("runtime.gc_cycles", float64(gc1-gc0), "count")
	res.put("runtime.alloc_bytes_per_round", allocs/float64(m1.SteppedRounds-m0.SteppedRounds), "bytes")
	res.put("runtime.gc_pause_ms", d.log.gcPauses(gc0, gc1), "ms")
	probe.put(res)
	res.put("trace.overhead_pct", overheadPct(tracedMs, untracedMs), "%")
	return res, run.tr.write(traceFile(o.root, o.workload, o.seed))
}

// restoreCheck starts a daemon from the last checkpoint, times it to
// healthy, replays the rounds stepped since that checkpoint and requires
// byte-identical /step replies.
func (r *daemonRun) restoreCheck() (float64, error) {
	d, secs, err := startDaemon(r.o.vodserve, []string{"-restore", r.ckpt}, false)
	if err != nil {
		return 0, fmt.Errorf("restore: %w", err)
	}
	defer d.stop()
	var got [][]byte
	for _, body := range r.tailBodies {
		r.res.Attempted += 2
		if _, err := d.call("POST", "/demand", body); err != nil {
			r.res.Failed++
			return 0, err
		}
		reply, err := d.call("POST", "/step", stepBody)
		if err != nil {
			r.res.Failed++
			return 0, err
		}
		got = append(got, reply)
	}
	r.checks.add(checkSame("restored daemon", r.tailReplies, got))
	return secs, nil
}

// shadowStats are the engine-layer figures of the shadow run.
type shadowStats struct {
	preAdmitMs, admitMatchMs, stallMs []float64
	violReq, violBoxes                []float64
	matchedMean                       float64
	obstructions                      int
	maxSwarm, peakRequests            int
}

// shadow replays the rounds the daemon stepped on an in-process engine
// built from the same spec: every round's result must equal the daemon's,
// and the generator stamps split the round into its layers.
func (r *daemonRun) shadow(spec vod.Spec, rounds int) (*shadowStats, error) {
	sys, err := vod.New(spec)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	batches := make([][]vod.Demand, rounds)
	copy(batches, r.corpus)
	gen := &timedGen{src: &replayGen{batches: batches}}
	st := &shadowStats{}
	var got [][]byte
	matched := 0.0
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		res, err := sys.Step(gen)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("shadow round %d: %w", i+1, err)
		}
		if i < daemonWarmup {
			got = append(got, mustJSON(res))
			continue
		}
		st.preAdmitMs = append(st.preAdmitMs, ms(gen.enter.Sub(t0)))
		st.admitMatchMs = append(st.admitMatchMs, ms(t1.Sub(gen.exit)))
		matched += float64(res.Matched)
		if ob := res.Obstruction; ob != nil {
			st.obstructions++
			st.violReq = append(st.violReq, float64(ob.Requests))
			st.violBoxes = append(st.violBoxes, float64(ob.Boxes))
			st.stallMs = append(st.stallMs, ms(t1.Sub(t0)))
		}
		got = append(got, mustJSON(res))
	}
	r.checks.add(checkSame("in-process shadow of the daemon", r.replies[:rounds], got))
	st.matchedMean = matched / float64(rounds-daemonWarmup)
	rep := sys.Report()
	st.maxSwarm, st.peakRequests = rep.MaxSwarm, rep.PeakRequests
	return st, nil
}
