package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host reference kernel. FROZEN: every wall-clock and CPU-time metric
// of the benchmark is divided by a slowdown factor measured with this
// kernel, so editing it re-bases every number the benchmark has ever
// reported. Later PRs never touch this file.
//
// The kernel is a pure-Go integer sum of absolute differences over two
// 64 KiB byte arrays, repeated refPasses times (≈2 ms on the sandbox). It
// touches 128 KiB — inside L2, outside L1 — and runs the same kind of
// instruction mix as the codec's own hot loop (byte loads, subtract,
// branch-free abs, accumulate), so a host that slows the encoder slows the
// kernel by about the same factor.
//
// Every run is timed twice: on the wall clock, and in CPU time charged to
// the thread that ran it. The two slow down for different reasons. A
// neighbour on the same physical machine (a shared cache, a stolen
// hypervisor slice, a lower clock) makes each instruction slower and
// inflates both. Another process on the same box taking a core away
// inflates only the wall time: the kernel waits, and is not charged for
// waiting. Wall-clock metrics are deflated by the wall slowdown, CPU-time
// metrics by the CPU slowdown.

const (
	refBytes  = 64 << 10
	refPasses = 40
)

// hostRef is one reference-kernel instance with its own arrays, so two
// shards sampling at the same moment share nothing. sink keeps the
// result alive.
type hostRef struct {
	a, b [refBytes]byte
	sink int64
}

func newHostRef() *hostRef {
	r := &hostRef{}
	x := uint32(0x9e3779b9)
	for i := range r.a {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		r.a[i] = byte(x)
		r.b[i] = byte(x >> 8)
	}
	return r
}

// Linux CPU-time clocks. getrusage reads the same totals, but splits
// them by sampling ticks: over the kernel's two milliseconds its deltas
// are anywhere between 0 and 2 ms. These clocks count scheduler
// nanoseconds.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuClock reads one of the CPU-time clocks; 0 where the host has none.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// refRun is one timed execution of the reference kernel.
type refRun struct{ wall, cpu time.Duration }

// run executes the kernel once, pinned to one thread so the CPU time read
// before and after is the same thread's.
func (r *hostRef) run() refRun {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := cpuClock(clockThreadCPU)
	t0 := time.Now()
	var sum int64
	for p := 0; p < refPasses; p++ {
		a, b := r.a[:], r.b[:]
		var s int32
		for i := range a {
			d := int32(a[i]) - int32(b[i])
			m := d >> 31
			s += (d ^ m) - m
		}
		sum += int64(s)
		// Perturb one byte per pass so the passes cannot be folded.
		r.a[p] ^= byte(s)
	}
	r.sink += sum
	return refRun{wall: time.Since(t0), cpu: cpuClock(clockThreadCPU) - c0}
}

// hostClock owns the reference kernels of one process and the fastest run
// any of them has made, on either clock: the host's unhindered speed, the
// floors every phase's slowdown is measured against.
type hostClock struct {
	mu       sync.Mutex
	floor    float64 // seconds of wall time; 0 until the first sample
	cpuFloor float64 // seconds of thread CPU time
	free     []*hostRef
}

func newHostClock() *hostClock { return &hostClock{} }

// refSampler collects the reference-kernel samples of one phase of a run
// (set-up, one measured window, the probes). Safe for concurrent use: every
// unit's round hook samples into the same phase.
type refSampler struct {
	host       *hostClock
	mu         sync.Mutex
	samples    []float64 // seconds of wall time per kernel run
	cpuSamples []float64 // seconds of thread CPU time per kernel run
	total      refRun    // summed over the phase
}

// phase starts a new phase on the clock.
func (h *hostClock) phase() *refSampler { return &refSampler{host: h} }

// sample runs the kernel reps times and records each run.
func (s *refSampler) sample(reps int) {
	h := s.host
	h.mu.Lock()
	var r *hostRef
	if n := len(h.free); n > 0 {
		r, h.free = h.free[n-1], h.free[:n-1]
	}
	h.mu.Unlock()
	if r == nil {
		r = newHostRef()
	}
	var runs [4]refRun
	reps = min(reps, len(runs))
	for i := 0; i < reps; i++ {
		runs[i] = r.run()
	}
	h.mu.Lock()
	h.free = append(h.free, r)
	for _, d := range runs[:reps] {
		if w := d.wall.Seconds(); h.floor == 0 || w < h.floor {
			h.floor = w
		}
		if c := d.cpu.Seconds(); c > 0 && (h.cpuFloor == 0 || c < h.cpuFloor) {
			h.cpuFloor = c
		}
	}
	h.mu.Unlock()
	s.mu.Lock()
	for _, d := range runs[:reps] {
		s.samples = append(s.samples, d.wall.Seconds())
		s.cpuSamples = append(s.cpuSamples, d.cpu.Seconds())
		s.total.wall += d.wall
		s.total.cpu += d.cpu
	}
	s.mu.Unlock()
}

// slowdown is the phase's wall-clock deflation factor S (see stats.go)
// against the process-wide floor, with the floor and the sample count.
func (s *refSampler) slowdown() (factor, floor float64, n int) {
	s.mu.Lock()
	samples := append([]float64(nil), s.samples...)
	s.mu.Unlock()
	s.host.mu.Lock()
	floor = s.host.floor
	s.host.mu.Unlock()
	return slowdown(samples, floor), floor, len(samples)
}

// cpuSlowdown is the same factor measured in the kernel's own CPU time:
// what CPU-time metrics are deflated by.
func (s *refSampler) cpuSlowdown() float64 {
	s.mu.Lock()
	samples := append([]float64(nil), s.cpuSamples...)
	s.mu.Unlock()
	s.host.mu.Lock()
	floor := s.host.cpuFloor
	s.host.mu.Unlock()
	return slowdown(samples, floor)
}

// spent is the summed wall and CPU time of the phase's kernel runs.
func (s *refSampler) spent() refRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}
