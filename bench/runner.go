package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	outDir   string
}

// report is what a run yields: op counts, every metric by name, and for
// timings the sample count, median and quartiles behind the value.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	detail            map[string]summary
	failures          []string
	notes             []string
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// timing reports a metric as the median of its samples.
func (r *report) timing(name string, xs []float64) {
	s := summarize(xs)
	r.metrics[name] = s.Med
	r.detail[name] = s
}

// checker counts operations and the ones that failed a correctness check.
// Sections embed it; it is safe for concurrent clients.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// done records one finished operation; a non-nil err makes it a failed one.
func (c *checker) done(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.failures) < 8 {
			c.failures = append(c.failures, err.Error())
		}
	}
}

// section is one of the four workload bodies. The driver wants every
// end-to-end metric from every workload, so a run executes every section
// whose metrics it reports: the workload named on the command line gets the
// largest share of the measured time (see focusShare), the others form a
// short panel. The two library sections report the same three metrics;
// regrid-auto supplies them when it is the named workload, insitu-3d
// otherwise, and an untraced run skips the one that supplies nothing.
type section interface {
	name() string
	// setup builds the inputs from the seed, boots what the section needs and
	// warms caches and pools; none of it is timed into the section's metrics.
	setup(env *environment) error
	// run measures for about d; tr is nil on untraced runs.
	run(d time.Duration, tr *tracer) error
	// reset drops the samples of earlier run calls.
	reset()
	// opCostMs is the mean latency of the section's public calls, summed over
	// the kinds of call, for the traced-versus-untraced comparison: unlike a
	// median over the mix it does not move with the share of each kind.
	opCostMs() float64
	// rawBytes is the uncompressed volume the measured calls moved.
	rawBytes() int64
	check() *checker
	endToEnd(r *report)
	close() error
}

// environment is what set-up hands every section.
type environment struct {
	seed   int64
	smoke  bool
	traced bool
	tmpDir string // removed on exit, also on failure
	notes  []string
}

// note records a line for the head of the report (input sizes and the like).
func (e *environment) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

const (
	// procs is the GOMAXPROCS every run pins, and clients the number of
	// closed-loop clients (and readers) the service sections drive a daemon
	// with. Both are one although the sandbox shows two CPUs: its two vCPUs do
	// not run two threads side by side steadily (a second thread shares the
	// first one's vCPU for hundreds of milliseconds at a time), so with two
	// clients every service latency differed by 10-30 % between runs of the
	// same code, and with one client on two Ps still by twice as much as on
	// one P (README, "Steadiness"). A client waits for each reply, so client
	// and server take turns: the load is one core's worth, measured on one.
	procs   = 1
	clients = 1
	// focusShare is the share of the measured time the named workload's own
	// section gets; the other three split the rest evenly.
	focusShare = 0.4
	// setupRepeats is how often a run sets up (and tears down) everything to
	// report setup_s as a median.
	setupRepeats = 3
	// probeShare is the share of a traced run spent on the direct per-layer
	// probes (codec, wire, store, container calls).
	probeShare = 0.25
)

// newSections returns the sections a run of the workload executes, in
// execution order, and the index of the workload's own (-1 if there is no
// such workload). A traced run executes all four; an untraced run leaves out
// the library section that supplies no end-to-end metric.
func newSections(workload string, traced bool) (secs []section, focus int) {
	secs = []section{&insitu{}, &svc{}, &temporal{}}
	if r := (&regrid{}); traced {
		secs = []section{&insitu{}, r, &svc{}, &temporal{}}
	} else if workload == r.name() {
		secs[0] = r
	}
	focus = -1
	for i, s := range secs {
		if s.name() == workload {
			focus = i
		}
	}
	return secs, focus
}

// runWorkload sets up, measures and checks one workload.
func runWorkload(cfg runConfig) (rep *report, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	secs, focus := newSections(cfg.workload, cfg.traced)
	if focus < 0 {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	env := &environment{seed: cfg.seed, smoke: cfg.smoke, traced: cfg.traced}
	closeAll := func() {
		for _, s := range secs {
			if cerr := s.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	defer closeAll()

	// Set-up, several times over: the median is setup_s, the last one is
	// what the measurement runs on.
	repeats := setupRepeats
	if cfg.smoke {
		repeats = 1
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			closeAll()
			if err != nil {
				return nil, err
			}
			secs, _ = newSections(cfg.workload, cfg.traced)
		}
		env.notes = nil
		env.tmpDir = filepath.Join(tmp, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(env.tmpDir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		for _, s := range secs {
			if err := s.setup(env); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", s.name(), err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	rep = &report{metrics: make(map[string]float64), detail: make(map[string]summary)}
	rep.notes = append(env.notes, fmt.Sprintf("caches of cpu0: %v; GOMAXPROCS pinned to %d, %d closed-loop client(s)", cacheSizes(), procs, clients))
	rep.timing("setup_s", setups)

	total := time.Duration(cfg.seconds * float64(time.Second))
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
		total = time.Duration(float64(total) * (1 - probeShare))
	}
	var proc procDelta
	untraced := 0.0 // the focus section's call cost before tracing
	for i, s := range secs {
		d := time.Duration(float64(total) * (1 - focusShare) / float64(len(secs)-1))
		if i == focus {
			d = time.Duration(float64(total) * focusShare)
		}
		runtime.GC()
		if i == focus && cfg.traced {
			// The same section untraced first: the difference is what
			// tracing costs, and what the process spends per call is taken
			// here, where neither replay nor shadow work runs.
			proc.start(s)
			if err := s.run(d/3, nil); err != nil {
				return nil, fmt.Errorf("%s: %w", s.name(), err)
			}
			proc.stop(s)
			untraced = s.opCostMs()
			s.reset()
			d -= d / 3
		}
		if err := s.run(d, tr); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name(), err)
		}
	}

	for _, s := range secs {
		c := s.check()
		rep.attempted += c.attempted
		rep.failed += c.failed
		for _, f := range c.failures {
			rep.failures = append(rep.failures, s.name()+": "+f)
		}
		if !cfg.traced {
			s.endToEnd(rep)
		}
	}
	rep.set("pass_share", float64(rep.attempted-rep.failed)/float64(rep.attempted))
	if cfg.traced {
		if err := probeLayers(env, secs, time.Duration(cfg.seconds*probeShare*float64(time.Second)), tr, rep); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		proc.report(rep)
		rep.set("trace.overhead_share", (secs[focus].opCostMs()-untraced)/untraced)
		rep.notes = append(rep.notes, selfTimeNote(tr.spans))
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	}
	return rep, nil
}

// procDelta measures what the process spent over the untraced slice of a
// traced run's focus section.
type procDelta struct {
	m0, m1     runtime.MemStats
	cpu0, cpu1 time.Duration
	ops        int
	raw        int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (p *procDelta) start(s section) {
	p.ops, p.raw = -s.check().attempted, -s.rawBytes()
	runtime.ReadMemStats(&p.m0)
	p.cpu0 = cpuTime()
}

func (p *procDelta) stop(s section) {
	p.cpu1 = cpuTime()
	runtime.ReadMemStats(&p.m1)
	p.ops += s.check().attempted
	p.raw += s.rawBytes()
}

func (p *procDelta) report(r *report) {
	ops := float64(p.ops)
	r.set("proc.allocs_per_op", float64(p.m1.Mallocs-p.m0.Mallocs)/ops)
	r.set("proc.alloc_bytes_per_op", float64(p.m1.TotalAlloc-p.m0.TotalAlloc)/ops)
	r.set("proc.gc_pause_ms", float64(p.m1.PauseTotalNs-p.m0.PauseTotalNs)/1e6)
	r.set("proc.cpu_s_per_raw_gb", (p.cpu1-p.cpu0).Seconds()/(float64(p.raw)/1e9))
	r.set("proc.peak_rss_mb", peakRSSMB())
}

// peakRSSMB reads VmHWM of this process from /proc (0 where there is none).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// selfTimeNote lists, per span name, the time spent in the span itself and
// not in its children — where the traced run's time went, layer by layer.
func selfTimeNote(spans []span) string {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b strings.Builder
	b.WriteString("self time by span:")
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.1fms", n, float64(self[n])/1e6)
	}
	return b.String()
}
