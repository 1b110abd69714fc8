package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	vod "repro"
)

const (
	// minSetups is the least number of fresh systems set-up builds.
	minSetups = 3
	// engineWarmup rounds per system run untimed, longer than T=50 so
	// timed rounds carry steady-state expiry and retirement.
	engineWarmup = 60
)

// engineWorkload is a workload that drives the round engine in this
// process through vod.New and System.Step.
type engineWorkload struct {
	spec func(seed uint64) vod.Spec
	gen  func(seed uint64) demandSource
	// systems independent systems, with seeds derived from the run's
	// seed, are stepped in turn; more systems average over more inputs.
	systems int
	// setupBudget is how long set-up keeps building and dropping fresh
	// systems beyond the first minSetups; setup_s is their median time.
	setupBudget time.Duration
	// above marks a workload above the upload threshold: no request may
	// ever go unmatched. allAdmitted marks a generator that only asks
	// idle boxes for videos with allowance.
	above, allAdmitted bool
}

var catalogSweep = engineWorkload{
	spec: func(seed uint64) vod.Spec {
		return vod.Spec{Boxes: 1_000_000, Upload: 2, Storage: 2, Stripes: 4, Replicas: 4,
			Duration: 50, Growth: 1.2, Seed: seed}
	},
	gen: func(seed uint64) demandSource {
		r := rand.New(rand.NewPCG(seed, 1))
		return &sweepGen{perRound: 1000, nextBox: r.IntN(1 << 30), nextVideo: r.IntN(1 << 30)}
	},
	systems:     1,
	above:       true,
	allAdmitted: true,
}

var belowThreshold = engineWorkload{
	spec: func(seed uint64) vod.Spec {
		return vod.Spec{Boxes: 80, Upload: 0.75, Storage: 2, Stripes: 4, Replicas: 4,
			Duration: 50, Growth: 1.2, Resilient: true, Seed: seed}
	},
	gen: func(seed uint64) demandSource {
		return &bernoulliGen{rng: rand.New(rand.NewPCG(seed, 2)), p: 0.5}
	},
	systems:     4,
	setupBudget: time.Second,
}

// demandSource produces one round's demands from the system's view.
type demandSource interface {
	next(v *vod.View, round int) []vod.Demand
}

// sweepGen asks perRound idle boxes, in round-robin box order, for
// distinct videos in round-robin catalog order, skipping videos whose
// swarm has no allowance left.
type sweepGen struct {
	perRound, nextBox, nextVideo int
	out                          []vod.Demand
}

func (g *sweepGen) next(v *vod.View, _ int) []vod.Demand {
	n, m := v.NumBoxes(), v.Catalog().M
	out := g.out[:0]
	for tries := 0; tries < 2*g.perRound && len(out) < g.perRound; tries++ {
		box := g.nextBox % n
		g.nextBox++
		if !v.BoxIdle(box) {
			continue
		}
		vid := vod.VideoID(g.nextVideo % m)
		g.nextVideo++
		if v.SwarmAllowance(vid) <= 0 {
			continue
		}
		out = append(out, vod.Demand{Box: box, Video: vid})
	}
	g.out = out
	return out
}

// bernoulliGen makes every idle box demand with probability p, for a
// video drawn uniformly from the catalog.
type bernoulliGen struct {
	rng  *rand.Rand
	p    float64
	idle []int
	out  []vod.Demand
}

func (g *bernoulliGen) next(v *vod.View, _ int) []vod.Demand {
	g.idle = v.IdleBoxes(g.idle[:0])
	m := v.Catalog().M
	out := g.out[:0]
	for _, b := range g.idle {
		if g.rng.Float64() < g.p {
			out = append(out, vod.Demand{Box: b, Video: vod.VideoID(g.rng.IntN(m))})
		}
	}
	g.out = out
	return out
}

// replayGen hands out recorded batches, one per round.
type replayGen struct{ batches [][]vod.Demand }

func (g *replayGen) next(*vod.View, int) []vod.Demand {
	if len(g.batches) == 0 {
		return nil
	}
	b := g.batches[0]
	g.batches = g.batches[1:]
	return b
}

// timedGen is the Generator handed to Step. It stamps the entry to and the
// return from the generator call, which splits the round into the work
// before admission and admission plus matching, and can record each batch.
type timedGen struct {
	src         demandSource
	enter, exit time.Time
	record      bool
	batches     [][]vod.Demand
}

func (g *timedGen) Next(v *vod.View, round int) []vod.Demand {
	g.enter = time.Now()
	ds := g.src.next(v, round)
	if g.record {
		g.batches = append(g.batches, append([]vod.Demand(nil), ds...))
	}
	g.exit = time.Now()
	return ds
}

// engineRun is the state of one in-process run.
type engineRun struct {
	w      engineWorkload
	sys    *vod.System
	gen    *timedGen
	checks *checkLog

	loads, slots []int64
	reportMs     []float64
}

// step runs one round and applies the per-round checks, and the sampled
// ones when sample is set; the returned times bracket the Step call.
func (r *engineRun) step(sample bool) (vod.StepResult, time.Time, time.Time, error) {
	t0 := time.Now()
	res, err := r.sys.Step(r.gen)
	t1 := time.Now()
	if err != nil {
		return res, t0, t1, err
	}
	view := r.sys.View()
	r.checks.add(checkStep(res, view.ActiveRequests()))
	if r.w.above {
		r.checks.add(checkAboveThreshold(res))
	}
	if r.w.allAdmitted {
		r.checks.add(checkAllAdmitted(res))
	}
	if sample {
		r.sampleCheck(res)
	}
	return res, t0, t1, nil
}

// sampleCheck reads every box's load and the aggregate report. It runs at
// every warmupSample-th warm-up round, after the timed phase and at the
// end of the checkpoint tail, never between timed rounds: Report copies
// and sorts every startup delay so far, and that garbage would land GC
// cycles on timed rounds.
func (r *engineRun) sampleCheck(res vod.StepResult) {
	view := r.sys.View()
	n := view.NumBoxes()
	if r.loads == nil {
		r.loads, r.slots = make([]int64, n), make([]int64, n)
	}
	for b := 0; b < n; b++ {
		r.loads[b] = view.ServerLoad(b)
		r.slots[b] = view.UploadSlots(b)
	}
	r.checks.add(checkLoads(res.Round, res.Matched, r.loads, r.slots))
	t0 := time.Now()
	rep := r.sys.Report()
	r.reportMs = append(r.reportMs, ms(time.Since(t0)))
	r.checks.add(checkConservation(res.Round, rep.Admitted, rep.CompletedViewings, n-view.NumIdle()))
}

func runEngine(w engineWorkload, o options) (*result, error) {
	probe, err := startProbe()
	if err != nil {
		return nil, err
	}
	// Set-up: fresh builds, timed one by one, rotating over the systems'
	// seeds; then the systems of the run are built untimed.
	var setups []float64
	setupStart := time.Now()
	for len(setups) < minSetups || (time.Since(setupStart) < w.setupBudget && len(setups) < 1000) {
		t0 := time.Now()
		s, err := vod.New(w.spec(subSeed(o.seed, len(setups)%w.systems)))
		if err != nil {
			return nil, fmt.Errorf("vod.New: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		s.Close()
		runtime.GC()
	}
	checks := &checkLog{}
	var runs []*engineRun
	defer func() {
		for _, r := range runs {
			if r.sys != nil {
				r.sys.Close()
			}
		}
	}()
	for i := 0; i < w.systems; i++ {
		s, err := vod.New(w.spec(subSeed(o.seed, i)))
		if err != nil {
			return nil, fmt.Errorf("vod.New: %w", err)
		}
		runs = append(runs, &engineRun{w: w, sys: s, gen: &timedGen{src: w.gen(subSeed(o.seed, i))}, checks: checks})
	}

	res := &result{Metrics: map[string]metric{}}
	for _, run := range runs {
		for i := 0; i < engineWarmup; i++ {
			res.Attempted++
			if _, _, _, err := run.step((i+1)%warmupSample == 0); err != nil {
				return nil, fmt.Errorf("warm-up round %d: %w", i+1, err)
			}
		}
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var (
		roundMs, demandMs, overheadMs   []float64
		tracedMs, untracedMs, stallMs   []float64
		preAdmitMs, admitMatchMs        []float64
		live, matched                   []float64
		violReq, violBoxes              []float64
		demanded, admitted, rejBusy     int64
		rejSwarm, unmatched, obstructed int64
		completed0                      int64
	)
	lastRes := make([]vod.StepResult, len(runs))
	for _, run := range runs {
		completed0 += run.sys.Report().CompletedViewings
	}
	// Collect the set-up and warm-up garbage now, so that the GC cycles of
	// the timed phase come from the timed rounds alone.
	runtime.GC()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	last := start
	for n := 0; n < minTimedRounds || time.Since(start) < budget; n++ {
		run := runs[n%len(runs)]
		res.Attempted++
		sr, t0, t1, err := run.step(false)
		if err != nil {
			res.Failed++
			checks.add(fmt.Errorf("Step: %w", err))
			break
		}
		lastRes[n%len(runs)] = sr
		d := ms(t1.Sub(t0))
		roundMs = append(roundMs, d)
		demandMs = append(demandMs, ms(t1.Sub(run.gen.exit)))
		if n > 0 {
			overheadMs = append(overheadMs, ms(t0.Sub(last)))
		}
		traced := tr != nil && (n/traceBlock)%2 == 0
		if traced {
			tracedMs = append(tracedMs, d)
			preAdmitMs = append(preAdmitMs, ms(run.gen.enter.Sub(t0)))
			admitMatchMs = append(admitMatchMs, ms(t1.Sub(run.gen.exit)))
			p := tr.add("round", t0, t1, -1)
			tr.add("core.pre_admit", t0, run.gen.enter, p)
			tr.add("generator.next", run.gen.enter, run.gen.exit, p)
			tr.add("core.admit_match", run.gen.exit, t1, p)
		} else {
			untracedMs = append(untracedMs, d)
		}
		live = append(live, float64(run.sys.View().ActiveRequests()))
		matched = append(matched, float64(sr.Matched))
		demanded += int64(sr.Demanded)
		admitted += int64(sr.Admitted)
		rejBusy += int64(sr.RejectedBusy)
		rejSwarm += int64(sr.RejectedSwarm)
		unmatched += int64(sr.Unmatched)
		if ob := sr.Obstruction; ob != nil {
			obstructed++
			violReq = append(violReq, float64(ob.Requests))
			violBoxes = append(violBoxes, float64(ob.Boxes))
			if traced {
				stallMs = append(stallMs, d)
			}
		}
		last = time.Now()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&mem1)
	rss, err := peakRSS("self")
	if err != nil {
		return nil, err
	}
	var completed1 int64
	var maxSwarm, peakRequests int
	for i, run := range runs {
		rep := run.sys.Report()
		completed1 += rep.CompletedViewings
		maxSwarm = max(maxSwarm, rep.MaxSwarm)
		peakRequests = max(peakRequests, rep.PeakRequests)
		run.sampleCheck(lastRes[i])
	}
	timed := len(roundMs)
	fmt.Fprintf(stderr, "%s: %d timed rounds in %.1fs, %d set-ups\n", o.workload, timed, elapsed.Seconds(), len(setups))

	var ck restoreOutcome
	var scrapes []float64
	for _, run := range runs {
		c, err := run.restoreCheck()
		if err != nil {
			return nil, err
		}
		ck.saveMs = append(ck.saveMs, c.saveMs...)
		ck.restoreS = append(ck.restoreS, c.restoreS...)
		ck.bytes += c.bytes
		res.Attempted += int64(2 * tailRounds)
		scrapes = append(scrapes, run.reportMs...)
	}
	if err := probe.finish(); err != nil {
		return nil, err
	}

	res.Correct = checks.ok()
	if !o.trace {
		res.put("setup_s", percentile(setups, 0.5), "s")
		res.put("round_ms_p50", percentile(roundMs, 0.5), "ms")
		res.put("demand_ms_p50", percentile(demandMs, 0.5), "ms")
		res.put("peak_rss_mb", rss, "MiB")
		return res, nil
	}

	res.put("loop.rounds_per_s", 1e3/mean(roundMs), "1/s")
	res.put("tail.round_ms_p90", percentile(roundMs, 0.9), "ms")
	res.put("tail.round_ms_p99", percentile(roundMs, 0.99), "ms")
	res.put("tail.demand_ms_p90", percentile(demandMs, 0.9), "ms")
	res.put("tail.demand_ms_p99", percentile(demandMs, 0.99), "ms")
	res.put("core.pre_admit_ms_p50", percentile(preAdmitMs, 0.5), "ms")
	res.put("core.admit_match_ms_p50", percentile(admitMatchMs, 0.5), "ms")
	res.put("core.admit_match_ms_p99", percentile(admitMatchMs, 0.99), "ms")
	res.put("core.live_requests_mean", mean(live), "count")
	res.put("core.demanded", float64(demanded), "count")
	res.put("core.admitted", float64(admitted), "count")
	res.put("core.rejected_busy", float64(rejBusy), "count")
	res.put("core.rejected_swarm", float64(rejSwarm), "count")
	res.put("core.completed_viewings", float64(completed1-completed0), "count")
	res.put("bipartite.matched_mean", mean(matched), "count")
	res.put("bipartite.unmatched_total", float64(unmatched), "count")
	res.put("bipartite.obstruction_rounds", float64(obstructed), "count")
	res.put("bipartite.violator_requests_mean", mean(violReq), "count")
	res.put("bipartite.violator_boxes_mean", mean(violBoxes), "count")
	res.put("bipartite.stall_round_ms_p50", percentile(stallMs, 0.5), "ms")
	res.put("swarm.max_size", float64(maxSwarm), "count")
	res.put("swarm.peak_requests", float64(peakRequests), "count")
	res.put("serve.engine_ms_mean", mean(roundMs), "ms")
	res.put("serve.step_overhead_ms_mean", mean(overheadMs), "ms")
	res.put("serve.metrics_ms_p50", percentile(scrapes, 0.5), "ms")
	res.put("serve.metrics_ms_max", percentile(scrapes, 1), "ms")
	res.put("ckpt.save_ms", percentile(ck.saveMs, 0.5), "ms")
	res.put("ckpt.bytes", float64(ck.bytes)/float64(len(runs)), "bytes")
	res.put("ckpt.restore_s", percentile(ck.restoreS, 0.5), "s")
	res.put("runtime.gc_cycles", float64(mem1.NumGC-mem0.NumGC), "count")
	res.put("runtime.alloc_bytes_per_round", float64(mem1.TotalAlloc-mem0.TotalAlloc)/float64(timed), "bytes")
	res.put("runtime.gc_pause_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6, "ms")
	probe.put(res)
	res.put("trace.overhead_pct", overheadPct(tracedMs, untracedMs), "%")
	return res, tr.write(traceFile(o.root, o.workload, o.seed))
}

// subSeed derives the seed of system i of a run from the run's seed.
func subSeed(seed uint64, i int) uint64 { return seed*16 + uint64(i) }

// restoreOutcome is what the checkpoint round trip measured.
type restoreOutcome struct {
	saveMs, restoreS []float64
	bytes            int
}

// restoreCheck saves a checkpoint, steps tailRounds more rounds while
// recording their demands and results, rebuilds the system with
// vod.LoadCheckpoint, replays the recorded demands and requires the same
// results round by round. It closes the original system.
func (r *engineRun) restoreCheck() (restoreOutcome, error) {
	var out restoreOutcome
	var buf bytes.Buffer
	t0 := time.Now()
	if err := r.sys.SaveCheckpoint(&buf); err != nil {
		return out, fmt.Errorf("SaveCheckpoint: %w", err)
	}
	out.saveMs = append(out.saveMs, ms(time.Since(t0)))
	out.bytes = buf.Len()

	r.gen.record = true
	var want [][]byte
	for i := 0; i < tailRounds; i++ {
		res, _, _, err := r.step(i == tailRounds-1)
		if err != nil {
			return out, fmt.Errorf("round after checkpoint: %w", err)
		}
		want = append(want, mustJSON(res))
	}
	batches := r.gen.batches
	r.sys.Close()
	r.sys = nil
	runtime.GC()

	t0 = time.Now()
	restored, err := vod.LoadCheckpoint(&buf)
	if err != nil {
		return out, fmt.Errorf("LoadCheckpoint: %w", err)
	}
	out.restoreS = append(out.restoreS, time.Since(t0).Seconds())
	defer restored.Close()
	replay := &timedGen{src: &replayGen{batches: batches}}
	var got [][]byte
	for i := 0; i < tailRounds; i++ {
		res, err := restored.Step(replay)
		if err != nil {
			return out, fmt.Errorf("restored round: %w", err)
		}
		got = append(got, mustJSON(res))
	}
	r.checks.add(checkSame("restored engine", want, got))
	return out, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers are marshalled here
	}
	return b
}

// overheadPct compares the median round of traced blocks with that of the
// interleaved untraced blocks.
func overheadPct(traced, untraced []float64) float64 {
	u := percentile(untraced, 0.5)
	if u == 0 {
		return 0
	}
	return 100 * (percentile(traced, 0.5)/u - 1)
}
