// Command vodperf is the end-to-end benchmark of the round engine and the
// vodserve daemon. One invocation runs one workload for a fixed time and
// prints, as the last line of its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (set-up time, median
// round and demand latency, peak memory); with -trace 1 they are the
// per-layer ones, taken from spans around each call into a layer, and the
// spans are written under .bench_build/traces.
//
// Run it through run.sh, which builds this command and vodserve from the
// checkout first:
//
//	bash vodperf/run.sh --workload catalog-sweep --seed 1 --seconds 10 --trace 0
//	bash vodperf/run.sh --steady 10           # steadiness of every workload
//
// See README.md for the workloads, the metrics and the reference figures.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

const (
	// minTimedRounds is the least number of timed rounds of a run, so
	// that round_ms_p99 has at least ten samples beyond it.
	minTimedRounds = 1000
	// traceBlock is the length of the alternating traced and untraced
	// blocks of rounds in a traced run.
	traceBlock = 20
	// tailRounds are stepped after a checkpoint and replayed on the
	// restored system.
	tailRounds = 20
	// warmupSample is the cadence of the sampled checks in the warm-up.
	warmupSample = 10
)

var stderr = os.Stderr

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string // checkout root; all files are written under it
	vodserve string // path of the vodserve binary
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) put(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// checkLog collects failed output checks; the first few are printed.
type checkLog struct{ failures int }

func (c *checkLog) add(err error) {
	if err == nil {
		return
	}
	c.failures++
	if c.failures <= 10 {
		fmt.Fprintf(stderr, "check failed: %v\n", err)
	}
}

func (c *checkLog) ok() bool { return c.failures == 0 }

func main() {
	var o options
	var traceFlag, steady int
	var probe bool
	flag.StringVar(&o.workload, "workload", "", "catalog-sweep, below-threshold or daemon-zipf")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	flag.IntVar(&o.seconds, "seconds", 0, "length of the timed phase (-steady: 0 takes run_seconds from BENCHMARK.json)")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.StringVar(&o.root, "root", ".", "checkout root")
	flag.StringVar(&o.vodserve, "vodserve", "", "vodserve binary (daemon-zipf)")
	flag.IntVar(&steady, "steady", 0, "run every workload (or -workload) this many times and report the spread of each metric")
	flag.BoolVar(&probe, "probe", false, "time the host probe kernels once and print the readings")
	flag.Parse()
	o.trace = traceFlag == 1

	var err error
	switch {
	case probe:
		fmt.Println(hostProbe())
		return
	case steady > 0:
		err = runSteady(o, steady, traceFlag)
	default:
		err = runOnce(o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "vodperf: %v\n", err)
		os.Exit(1)
	}
}

func runOnce(o options) error {
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %d", o.seconds)
	}
	var (
		res *result
		err error
	)
	switch o.workload {
	case "catalog-sweep":
		res, err = runEngine(catalogSweep, o)
	case "below-threshold":
		res, err = runEngine(belowThreshold, o)
	case "daemon-zipf":
		res, err = runDaemon(o)
	default:
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// peakRSS reads VmHWM, the peak resident set, of a process in MiB.
func peakRSS(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// probeRun holds the host probe readings of one run. The kernels run in a
// child process, so their table never counts towards the peak memory of
// the process that runs the engine.
type probeRun struct{ alu, mem []float64 }

// startProbe takes the start-of-run sample.
func startProbe() (*probeRun, error) {
	p := &probeRun{}
	return p, p.sample()
}

func (p *probeRun) sample() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out, err := exec.Command(self, "-probe").Output()
	if err != nil {
		return fmt.Errorf("host probe: %w", err)
	}
	f := strings.Fields(string(out))
	if len(f) != 2 {
		return fmt.Errorf("host probe printed %q", out)
	}
	alu, err1 := strconv.ParseFloat(f[0], 64)
	mem, err2 := strconv.ParseFloat(f[1], 64)
	if err := errors.Join(err1, err2); err != nil {
		return fmt.Errorf("host probe: %w", err)
	}
	p.alu = append(p.alu, alu)
	p.mem = append(p.mem, mem)
	return nil
}

// finish takes the end-of-run sample and logs both.
func (p *probeRun) finish() error {
	if err := p.sample(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "host probe: alu %.1f/%.1f ms, mem %.1f/%.1f ms (start/end)\n", p.alu[0], p.alu[1], p.mem[0], p.mem[1])
	return nil
}

func (p *probeRun) put(r *result) {
	r.put("host.alu_ms", mean(p.alu), "ms")
	r.put("host.mem_ms", mean(p.mem), "ms")
}
