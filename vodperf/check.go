package main

import (
	"bytes"
	"fmt"

	vod "repro"
)

// Output checks. Each compares a reply of the program against a property
// the method must have or against a count the benchmark keeps itself,
// never against a stored copy of an earlier run's output.

// checkStep holds for every round: every demand was admitted or rejected
// for exactly one reason, and every live request is either matched or
// unmatched.
func checkStep(res vod.StepResult, activeRequests int) error {
	if got := res.Admitted + res.RejectedBusy + res.RejectedSwarm; got != res.Demanded {
		return fmt.Errorf("round %d: admitted %d + rejected busy %d + rejected swarm %d = %d, demanded %d",
			res.Round, res.Admitted, res.RejectedBusy, res.RejectedSwarm, got, res.Demanded)
	}
	if got := res.Matched + res.Unmatched; got != activeRequests {
		return fmt.Errorf("round %d: matched %d + unmatched %d = %d, active requests %d",
			res.Round, res.Matched, res.Unmatched, got, activeRequests)
	}
	return checkObstruction(res)
}

// checkObstruction holds for every round that ends in an obstruction: the
// violator set X asks for more than its boxes can serve, and the requests
// left unmatched are exactly the deficit |X| − U(B(X)) (the defect form of
// Hall's theorem, which holds only for a maximum matching). A round
// without an obstruction must have no unmatched request.
func checkObstruction(res vod.StepResult) error {
	ob := res.Obstruction
	if ob == nil {
		if res.Unmatched != 0 {
			return fmt.Errorf("round %d: %d unmatched requests but no obstruction", res.Round, res.Unmatched)
		}
		return nil
	}
	if int64(ob.Requests) <= ob.Slots {
		return fmt.Errorf("round %d: obstruction with %d requests fits its %d slots", res.Round, ob.Requests, ob.Slots)
	}
	if want := int64(ob.Requests) - ob.Slots; int64(res.Unmatched) != want {
		return fmt.Errorf("round %d: %d unmatched, obstruction deficit %d requests − %d slots = %d",
			res.Round, res.Unmatched, ob.Requests, ob.Slots, want)
	}
	return nil
}

// checkAboveThreshold holds above the paper's threshold: no request is
// ever left unmatched.
func checkAboveThreshold(res vod.StepResult) error {
	if res.Unmatched != 0 || res.Obstruction != nil {
		return fmt.Errorf("round %d: %d unmatched requests above the upload threshold", res.Round, res.Unmatched)
	}
	return nil
}

// checkAllAdmitted holds when the generator asks only idle boxes for
// videos whose swarms have room.
func checkAllAdmitted(res vod.StepResult) error {
	if res.Admitted != res.Demanded {
		return fmt.Errorf("round %d: %d of %d demands admitted from idle boxes with allowance", res.Round, res.Admitted, res.Demanded)
	}
	return nil
}

// checkLoads holds after every round: the boxes' upload loads add up to
// the matched requests, and no box serves more than its upload slots.
func checkLoads(round, matched int, loads, slots []int64) error {
	sum := int64(0)
	for b, l := range loads {
		if l < 0 || l > slots[b] {
			return fmt.Errorf("round %d: box %d serves %d requests with %d upload slots", round, b, l, slots[b])
		}
		sum += l
	}
	if sum != int64(matched) {
		return fmt.Errorf("round %d: box loads sum to %d, matched %d", round, sum, matched)
	}
	return nil
}

// checkConservation holds after every round: every admitted viewing has
// either completed or still occupies its box.
func checkConservation(round int, admitted, completed int64, busyBoxes int) error {
	if admitted != completed+int64(busyBoxes) {
		return fmt.Errorf("round %d: admitted %d ≠ completed %d + busy boxes %d", round, admitted, completed, busyBoxes)
	}
	return nil
}

// daemonMetrics is the part of the daemon's GET /metrics reply the
// benchmark reads.
type daemonMetrics struct {
	Round          int     `json:"round"`
	LiveRequests   int     `json:"live_requests"`
	IdleBoxes      int     `json:"idle_boxes"`
	PendingDemands int     `json:"pending_demands"`
	Demands        int64   `json:"demands"`
	Admitted       int64   `json:"admitted"`
	RejectedBusy   int64   `json:"rejected_busy"`
	RejectedSwarm  int64   `json:"rejected_swarm"`
	Completed      int64   `json:"completed_viewings"`
	Stalls         int64   `json:"stall_request_rounds"`
	Failed         bool    `json:"failed"`
	RoundsPerSec   float64 `json:"rounds_per_sec"`
	AllocsPerRound uint64  `json:"alloc_bytes_per_round"`
	SteppedRounds  int64   `json:"stepped_rounds"`
}

// checkDaemonMetrics compares a /metrics reply taken between rounds with
// the client's own counts: the rounds it stepped and the demands it sent.
// It also applies the conservation law and, since the scrape follows a
// /step, the matched/unmatched split of that step's last round.
func checkDaemonMetrics(m daemonMetrics, rounds int, sent int64, boxes int, last vod.StepResult) error {
	if m.Round != rounds {
		return fmt.Errorf("/metrics round %d, client stepped %d rounds", m.Round, rounds)
	}
	if m.Demands != sent || m.PendingDemands != 0 {
		return fmt.Errorf("round %d: /metrics counts %d demands (%d pending), client sent %d", m.Round, m.Demands, m.PendingDemands, sent)
	}
	if m.Admitted+m.RejectedBusy+m.RejectedSwarm != m.Demands {
		return fmt.Errorf("round %d: /metrics admitted %d + rejected %d + %d ≠ demands %d",
			m.Round, m.Admitted, m.RejectedBusy, m.RejectedSwarm, m.Demands)
	}
	if m.Failed {
		return fmt.Errorf("round %d: daemon reports a failed system", m.Round)
	}
	if err := checkConservation(m.Round, m.Admitted, m.Completed, boxes-m.IdleBoxes); err != nil {
		return err
	}
	if last.Round != m.Round {
		return fmt.Errorf("/metrics round %d, last /step round %d", m.Round, last.Round)
	}
	return checkStep(last, m.LiveRequests)
}

// checkSame compares the replies of an original run and a restored or
// shadow run of the same rounds, one reply per round.
func checkSame(what string, want, got [][]byte) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d replies, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			return fmt.Errorf("%s: reply %d differs:\n got %s\nwant %s", what, i, got[i], want[i])
		}
	}
	return nil
}
