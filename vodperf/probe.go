package main

import "time"

// The host probe times two fixed kernels that share no code with the
// program: an integer ALU loop and a dependent random walk over a table
// far larger than the CPU caches. Run at the start and the end of every
// run, they tell a run on the host's slow memory mode (mem_ms up, alu_ms
// flat) apart from a regression in the program (both flat).

const (
	aluIters  = 40_000_000
	memWords  = 1 << 23 // 32 MiB of uint32 successors
	memSteps  = 2_000_000
	probeSeed = 0x9e3779b97f4a7c15
)

// probeSink keeps the kernels' results alive so the compiler cannot drop
// the loops.
var probeSink uint64

// hostProbe times both kernels once and returns their readings in ms.
// The walk's table is a single-cycle random permutation (Sattolo's
// algorithm) drawn with a fixed xorshift generator, so every run walks the
// same table; building it is not timed.
func hostProbe() (aluMs, memMs float64) {
	next := make([]uint32, memWords)
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(probeSeed)
	for i := len(next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}

	start := time.Now()
	x = probeSeed
	for i := 0; i < aluIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	aluMs = ms(time.Since(start))

	start = time.Now()
	j := uint32(0)
	for i := 0; i < memSteps; i++ {
		j = next[j]
	}
	memMs = ms(time.Since(start))
	probeSink += x + uint64(j)
	return aluMs, memMs
}
