package main

import (
	"strings"
	"testing"

	vod "repro"
)

// good is a round that passes every per-round check: 10 demands, all
// admitted, 40 live requests all matched.
func good() vod.StepResult {
	return vod.StepResult{Round: 7, Demanded: 10, Admitted: 10, Matched: 40}
}

// stall is a below-threshold round: 45 requests, 40 slots, 5 unmatched.
func stall() vod.StepResult {
	return vod.StepResult{Round: 9, Demanded: 4, Admitted: 3, RejectedSwarm: 1, Matched: 35, Unmatched: 5,
		Obstruction: &vod.Obstruction{Round: 9, Requests: 45, Boxes: 10, Slots: 40}}
}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("check passed, want an error mentioning %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not mention %q", err, substr)
	}
}

func TestCheckStepAcceptsConsistentRounds(t *testing.T) {
	if err := checkStep(good(), 40); err != nil {
		t.Fatal(err)
	}
	if err := checkStep(stall(), 40); err != nil {
		t.Fatal(err)
	}
	if err := checkAboveThreshold(good()); err != nil {
		t.Fatal(err)
	}
	if err := checkAllAdmitted(good()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckStepFiresOnLostDemand(t *testing.T) {
	r := good()
	r.Admitted = 9 // one demand neither admitted nor rejected
	wantErr(t, checkStep(r, 40), "demanded 10")
}

func TestCheckStepFiresOnLostRequest(t *testing.T) {
	wantErr(t, checkStep(good(), 41), "active requests 41")
}

func TestCheckStepFiresOnUnmatchedWithoutObstruction(t *testing.T) {
	r := good()
	r.Matched, r.Unmatched = 38, 2
	wantErr(t, checkStep(r, 40), "no obstruction")
}

func TestCheckObstructionFiresWhenViolatorFits(t *testing.T) {
	r := stall()
	r.Obstruction.Slots = 45
	wantErr(t, checkObstruction(r), "fits")
}

func TestCheckObstructionFiresOnNonMaximumMatching(t *testing.T) {
	r := stall()
	r.Matched, r.Unmatched = 34, 6 // one more unmatched than the deficit
	wantErr(t, checkObstruction(r), "deficit")
}

func TestCheckAboveThresholdFiresOnStall(t *testing.T) {
	wantErr(t, checkAboveThreshold(stall()), "above the upload threshold")
}

func TestCheckAllAdmittedFiresOnRejection(t *testing.T) {
	r := good()
	r.Admitted, r.RejectedBusy = 9, 1
	wantErr(t, checkAllAdmitted(r), "9 of 10")
}

func TestCheckLoads(t *testing.T) {
	slots := []int64{3, 3, 3}
	if err := checkLoads(1, 5, []int64{2, 3, 0}, slots); err != nil {
		t.Fatal(err)
	}
	wantErr(t, checkLoads(1, 5, []int64{1, 4, 0}, slots), "box 1 serves 4")
	wantErr(t, checkLoads(1, 6, []int64{2, 3, 0}, slots), "sum to 5")
}

func TestCheckConservation(t *testing.T) {
	if err := checkConservation(3, 100, 60, 40); err != nil {
		t.Fatal(err)
	}
	wantErr(t, checkConservation(3, 100, 60, 39), "busy boxes 39")
}

// metricsReply is a /metrics reply consistent with good() after 7 rounds
// in which the client sent 70 demands to 100 boxes.
func metricsReply() daemonMetrics {
	return daemonMetrics{Round: 7, LiveRequests: 40, IdleBoxes: 60, Demands: 70, Admitted: 70, Completed: 30}
}

func TestCheckDaemonMetrics(t *testing.T) {
	if err := checkDaemonMetrics(metricsReply(), 7, 70, 100, good()); err != nil {
		t.Fatal(err)
	}
	m := metricsReply()
	m.Demands, m.Admitted = 69, 69 // the daemon lost a demand the client sent
	wantErr(t, checkDaemonMetrics(m, 7, 70, 100, good()), "client sent 70")
	m = metricsReply()
	m.PendingDemands = 1
	wantErr(t, checkDaemonMetrics(m, 7, 70, 100, good()), "pending")
	m = metricsReply()
	m.Round = 6
	wantErr(t, checkDaemonMetrics(m, 7, 70, 100, good()), "client stepped 7")
	m = metricsReply()
	m.Completed = 31
	wantErr(t, checkDaemonMetrics(m, 7, 70, 100, good()), "completed 31")
	m = metricsReply()
	m.LiveRequests = 39
	wantErr(t, checkDaemonMetrics(m, 7, 70, 100, good()), "active requests 39")
	m = metricsReply()
	m.RejectedBusy = 1
	wantErr(t, checkDaemonMetrics(m, 7, 70, 100, good()), "≠ demands")
}

func TestCheckStepReply(t *testing.T) {
	ok := stepReply{Round: 7, Stepped: 1, Matched: 40, Last: good()}
	if err := checkStepReply(ok, 7); err != nil {
		t.Fatal(err)
	}
	wantErr(t, checkStepReply(ok, 8), "round 8")
	r := ok
	r.Stepped = 2
	wantErr(t, checkStepReply(r, 7), "2 stepped")
	r = ok
	r.Matched = 39
	wantErr(t, checkStepReply(r, 7), "totals")
	r = stepReply{Round: 9, Stepped: 1, Matched: 35, Unmatched: 5, Last: stall()}
	wantErr(t, checkStepReply(r, 9), "above the upload threshold")
}

func TestCheckSame(t *testing.T) {
	a := [][]byte{[]byte(`{"round":1}`), []byte(`{"round":2}`)}
	if err := checkSame("restore", a, [][]byte{[]byte(`{"round":1}`), []byte(`{"round":2}`)}); err != nil {
		t.Fatal(err)
	}
	wantErr(t, checkSame("restore", a, [][]byte{[]byte(`{"round":1}`), []byte(`{"round":3}`)}), "reply 1 differs")
	wantErr(t, checkSame("restore", a, a[:1]), "1 replies, want 2")
}

func TestGCPause(t *testing.T) {
	p, ok := gcPause("gc 21 @23.366s 0%: 0.035+186+0.023 ms clock, 0.071+0.12/98/83+0.047 ms cpu, 522->522->362 MB, 531 MB goal, 0 MB stacks, 0 MB globals, 2 P")
	if !ok || p < 0.0579 || p > 0.0581 {
		t.Fatalf("gcPause = %v, %v; want 0.058", p, ok)
	}
	if _, ok := gcPause("2026/01/01 vodserve: listening on 127.0.0.1:1"); ok {
		t.Fatal("a log line parsed as a GC trace")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := percentile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}
