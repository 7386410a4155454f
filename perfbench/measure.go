package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuNow is the process's user+sys CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of /proc/stat times (USER_HZ, 100 on Linux).
const clockTick = 10 * time.Millisecond

// stealNow reads the machine's CPU time stolen by the hypervisor (all
// CPUs) from /proc/stat; 0 where it is unavailable.
func stealNow() time.Duration {
	return time.Duration(stealTicks()) * clockTick
}

// stealTicks reads the steal column of /proc/stat's cpu line.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// allocBytes is the cumulative heap bytes allocated by the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples the Go heap's object bytes every millisecond and
// keeps the maximum. The heap grows to its GC goal between collections,
// so the sampled peak tracks the goal, not the sampling phase.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak in MiB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// rep is one repetition's host-side measurements.
type rep struct {
	Setup, Run, CPU time.Duration
	HeapMB, AllocMB float64
	// Steal is the CPU time the hypervisor took from the machine meanwhile.
	Steal time.Duration
}

// runS is the repetition's wall time with hypervisor steal taken out:
// on a virtual machine the host takes CPU from the guest in bursts, and
// while it does, wall time stretches with no change in the work done.
// rusage CPU time excludes steal, so CPU/(CPU+steal) is the share of the
// process's demand the machine actually ran, and scaling wall time by it
// removes the stretch. Without steal (bare metal, or no /proc/stat) it
// is the plain wall time.
func (r rep) runS() float64 {
	if r.CPU <= 0 {
		return r.Run.Seconds()
	}
	return r.Run.Seconds() * float64(r.CPU) / float64(r.CPU+r.Steal)
}

// measure runs fn as one repetition's measured phase: it collects the
// previous repetition's garbage first, so every repetition starts from
// the same heap, then records wall, CPU, allocation and peak heap.
func measure(fn func()) rep {
	runtime.GC()
	a0 := allocBytes()
	hp := startHeapPeak()
	c0, s0 := cpuNow(), stealNow()
	t0 := time.Now()
	fn()
	r := rep{Run: time.Since(t0), CPU: cpuNow() - c0, Steal: stealNow() - s0}
	r.HeapMB = hp.end()
	r.AllocMB = float64(allocBytes()-a0) / (1 << 20)
	return r
}

// timeSetup times build after collecting garbage, so leftovers of the
// previous repetition do not bill their collection to this set-up.
func timeSetup(build func()) time.Duration {
	runtime.GC()
	t0 := time.Now()
	build()
	return time.Since(t0)
}

// repeatUntil calls run at least atLeast times, and again while another
// call, judged by the last one's duration, would end before deadline.
func repeatUntil[T any](deadline time.Time, atLeast int, run func() T) []T {
	var out []T
	var last time.Duration
	for len(out) < atLeast || time.Now().Add(last).Before(deadline) {
		t := time.Now()
		out = append(out, run())
		last = time.Since(t)
	}
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by nearest rank on a sorted copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}

// repStats folds repetitions into medians; run is steal-adjusted.
func repStats(reps []rep) (setup, run, cpu, heap, alloc float64) {
	var a, b, c, d, e []float64
	for _, r := range reps {
		a = append(a, r.Setup.Seconds())
		b = append(b, r.runS())
		c = append(c, r.CPU.Seconds())
		d = append(d, r.HeapMB)
		e = append(e, r.AllocMB)
	}
	return median(a), median(b), median(c), median(d), median(e)
}

// repRuns formats each repetition's wall time, stolen time and
// steal-adjusted run time, for the report.
func repRuns(reps []rep) string {
	var b strings.Builder
	for i, r := range reps {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f/%.2f/%.3f", r.Run.Seconds(), r.Steal.Seconds(), r.runS())
	}
	return b.String()
}

// fnv folds v into an FNV-1a digest byte by byte.
func fnv(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

const fnvBasis = 14695981039346656037

// span is one harness-timed call into a layer's public function.
type span struct {
	Layer string `json:"layer"`
	Call  string `json:"call"`
	Start int64  `json:"start_ns"` // wall ns since the recorder started
	Dur   int64  `json:"dur_ns"`
}

// spanLog keeps harness spans in memory until the run ends. It is safe
// for concurrent use (the live workload's generator records from many
// goroutines).
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	limit int
	drops int
}

func newSpanLog(limit int) *spanLog {
	return &spanLog{t0: time.Now(), limit: limit}
}

// add records one call that began at start and lasted dur.
func (l *spanLog) add(layer, call string, start time.Time, dur time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.spans) < l.limit {
		l.spans = append(l.spans, span{layer, call, int64(start.Sub(l.t0)), int64(dur)})
	} else {
		l.drops++
	}
	l.mu.Unlock()
}

// durations returns the recorded durations (ns) of one call name.
func (l *spanLog) durations(call string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Call == call {
			out = append(out, float64(s.Dur))
		}
	}
	return out
}

// write dumps the spans as JSON lines to .bench_build/spans/<name>.jsonl.
func (l *spanLog) write(name string) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if l.drops > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: span log full, %d spans not kept\n", l.drops)
	}
	return nil
}
