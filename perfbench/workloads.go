package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Workload shapes. README.md records why each was chosen.
const (
	// wire-firehose: closed loop, two sessions of counter objects.
	firehoseBatch   = 128
	firehoseEvents  = 1 << 16 // events per object
	firehoseProcs   = 2
	firehoseObjects = 2 // distinct objects per lane, cycled

	// durable-paced: a checkpointing daemon, closed loop end to end; the
	// traced run adds an open loop at pacedRate (README.md says why).
	pacedBatch    = 64
	pacedRate     = 40000 // offered events/s over both sessions
	pacedQueueOps = 32768 // never-quiescent queue operations per object
	pacedSetEvts  = 65536 // set events per object
	pacedObjects  = 2
	pacedCkpt     = 64 // linmond's default -checkpoint-every

	// offline-stream: linverify -stream on one large envelope.
	offlineEvents = 150000
	offlineProcs  = 4
	offlineChunk  = 256 // linverify's -stream append chunk

	setupRepeats = 21 // set-ups per run; setup_s is their median
	warmup       = time.Second
)

// workload is one named input set and how the daemon or tool is driven.
type workload struct {
	lanes   []*lane
	offline bool    // linverify -stream instead of linmond
	durable bool    // linmond -state-dir
	paced   float64 // offered events/s over all lanes of the traced run's open loop; 0 = closed loop
	dir     string  // scratch directory for this run's files
	seeds   []int64 // generator seed of each object, in lane order
}

func buildWorkload(name string, seed int64, dir string) (*workload, error) {
	w := &workload{dir: dir}
	rng := rand.New(rand.NewSource(seed))
	// nextSeed draws one object's generator seed and records it.
	nextSeed := func() int64 {
		s := rng.Int63()
		w.seeds = append(w.seeds, s)
		return s
	}
	switch name {
	case "wire-firehose":
		counter := mustModel("counter")
		cfg := check.Config{Retain: true}
		for i := range 2 {
			l := &lane{name: fmt.Sprintf("fh%d", i), model: counter, cfg: cfg}
			for range firehoseObjects {
				h := concurrent(counter, nextSeed(), firehoseProcs, firehoseEvents)
				l.objects = append(l.objects, newObject(counter, cfg, h, firehoseBatch))
			}
			w.lanes = append(w.lanes, l)
		}
	case "durable-paced":
		w.durable, w.paced = true, pacedRate
		queue, set := spec.Queue(), mustModel("set")
		qcfg := check.Config{Retain: true, Retention: check.RetentionPolicy{CommitCuts: true}}
		scfg := check.Config{Retain: true}
		qa := &lane{name: "queueA", model: queue, cfg: qcfg}
		sb := &lane{name: "setB", model: set, cfg: scfg}
		for range pacedObjects {
			qa.objects = append(qa.objects, newObject(queue, qcfg, trace.NeverQuiescent(queue, nextSeed(), 5, pacedQueueOps), pacedBatch))
			sb.objects = append(sb.objects, newObject(set, scfg, concurrent(set, nextSeed(), 4, pacedSetEvts), pacedBatch))
		}
		w.lanes = []*lane{qa, sb}
	case "offline-stream":
		w.offline = true
		reg := mustModel("register")
		cfg := check.Config{Retain: true} // what linverify -stream builds
		h := concurrent(reg, nextSeed(), offlineProcs, offlineEvents)
		l := &lane{name: "reg", model: reg, cfg: cfg, objects: []*object{newObject(reg, cfg, h, offlineChunk)}}
		w.lanes = []*lane{l}
		if err := writeEnvelope(w.path("stream.json"), reg.Name(), h); err != nil {
			return nil, err
		}
		if err := writeEnvelope(w.path("one.json"), reg.Name(), h[:1]); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want wire-firehose, durable-paced or offline-stream)", name)
	}
	if !w.offline {
		for _, l := range w.lanes {
			for _, o := range l.objects {
				if err := o.encodeFrames(); err != nil {
					return nil, err
				}
			}
		}
	}
	return w, nil
}

func mustModel(name string) spec.Model {
	m, ok := spec.ByName(name)
	if !ok {
		panic("unknown model " + name)
	}
	return m
}

func (w *workload) path(name string) string { return filepath.Join(w.dir, name) }

// period is the per-lane batch period of an open loop offering rate events/s
// over all lanes; 0 (a closed loop) for rate 0.
func (w *workload) period(rate float64) int64 {
	if rate == 0 {
		return 0
	}
	batch := len(w.lanes[0].objects[0].batches[0])
	return int64(float64(time.Second) * float64(batch) * float64(len(w.lanes)) / rate)
}

// daemonArgs are the linmond flags of a run: the defaults, plus a fresh state
// directory for the durable workload.
func (w *workload) daemonArgs(tag string) ([]string, error) {
	if !w.durable {
		return nil, nil
	}
	dir := w.path("state-" + tag)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return []string{"-state-dir", dir}, nil
}

// outcome is what one run measured and checked.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	causes    map[string]int
	problems  []string // correctness failures; any makes the run incorrect
	notes     map[string]any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, causes: map[string]int{}, notes: map[string]any{}}
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{v, unit} }

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// setupDaemon measures linmond's set-up — process start until the first hello
// — setupRepeats times and returns the median with the last daemon still
// running for the measured phase.
func setupDaemon(bin string, w *workload, o *outcome) (*daemon, error) {
	var times []time.Duration
	var d *daemon
	for i := range setupRepeats {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
		args, err := w.daemonArgs(strconv.Itoa(i))
		if err != nil {
			return nil, err
		}
		t := time.Now()
		d, err = startDaemon(bin, args...)
		if err != nil {
			return nil, err
		}
		if err := hello(d.addr, "first"); err != nil {
			d.stop()
			return nil, fmt.Errorf("first hello: %w", err)
		}
		times = append(times, time.Since(t))
	}
	o.set("setup_s", "s", median(seconds(times)))
	return d, nil
}

// drive is one load-generator run against a daemon. The measured time is
// cut into subWindows equal sub-windows; bounds holds their edges in epoch
// nanoseconds, with the daemon's and the generator's CPU time at each edge.
type drive struct {
	res       []*laneResult
	bounds    []int64
	daemonCPU []time.Duration
	selfCPU   []time.Duration
	steal     []int64 // host steal ticks at each edge
	ticks     []int64 // host total ticks at each edge
}

// subWindows is how many sub-windows a measured time is cut into. Rates,
// latency percentiles and CPU per event are taken per sub-window, with the
// host's steal share, and reported as their median over the calm ones (see
// calm), so a stretch of interference on the shared host moves the
// sub-windows it falls in, not the run's figure.
const subWindows = 30

// driveDaemon runs the load generator against d for warmup+measure, leaving
// reserve batches of each granted window unused.
func driveDaemon(d *daemon, w *workload, measure time.Duration, period int64, reserve int) *drive {
	lg := &loadgen{addr: d.addr, epoch: time.Now(), period: period, drain: 10 * time.Second, reserve: reserve}
	dr := &drive{}
	for k := range subWindows + 1 {
		dr.bounds = append(dr.bounds, int64(warmup)+int64(measure)*int64(k)/subWindows)
	}
	lg.stopAt = dr.bounds[subWindows]
	pid := d.cmd.Process.Pid
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for _, at := range dr.bounds {
			time.Sleep(time.Until(lg.epoch.Add(time.Duration(at))))
			s, _ := sampleProc(pid)
			dr.daemonCPU = append(dr.daemonCPU, s.cpu)
			dr.selfCPU = append(dr.selfCPU, selfCPU())
			st, tot := hostTicks()
			dr.steal, dr.ticks = append(dr.steal, st), append(dr.ticks, tot)
		}
	}()
	dr.res = lg.run(w.lanes)
	<-sampled
	return dr
}

// account counts every batch of the drive as an operation, a batch never
// acked as a failed one, and takes over its verdict mismatches.
func (dr *drive) account(o *outcome) {
	for _, r := range dr.res {
		o.problems = append(o.problems, r.mismatch...)
		for _, b := range r.recs {
			o.attempted++
			if b.ack == 0 {
				o.failed++
				o.causes[causeNames[b.cause]]++
			}
		}
	}
}

// windowAcks returns the events acked inside [w0, w1) and the latency of each
// such batch from its due time, in ms.
func windowAcks(res []*laneResult, w0, w1 int64) (events int, lat []float64) {
	for _, r := range res {
		for _, b := range r.recs {
			if b.ack != 0 && b.ack >= w0 && b.ack < w1 {
				events += int(b.events)
				lat = append(lat, float64(b.ack-b.due)/1e6)
			}
		}
	}
	return events, lat
}

// windows are a drive's figures per sub-window: acked events per second,
// ack latency p50 and p99 from due time, and daemon CPU per acked event.
type windows struct {
	rate, p50, p99, cpu []float64
	steal               []float64 // the host's steal share
	samples             int
}

func (dr *drive) windows() (windows, error) {
	var ws windows
	for k := range subWindows {
		w0, w1 := dr.bounds[k], dr.bounds[k+1]
		events, lat := windowAcks(dr.res, w0, w1)
		if events == 0 {
			return ws, fmt.Errorf("no batch acked in sub-window %d", k)
		}
		ws.samples += len(lat)
		ws.rate = append(ws.rate, float64(events)/time.Duration(w1-w0).Seconds())
		ws.p50 = append(ws.p50, quantile(lat, 0.5))
		ws.p99 = append(ws.p99, quantile(lat, 0.99))
		ws.cpu = append(ws.cpu, float64((dr.daemonCPU[k+1]-dr.daemonCPU[k]).Nanoseconds())/float64(events))
		ws.steal = append(ws.steal, stealShare(dr.steal[k], dr.ticks[k], dr.steal[k+1], dr.ticks[k+1]))
	}
	return ws, nil
}

// runLinmond is the end-to-end run of the two daemon workloads, both closed
// loops.
func runLinmond(bins binaries, w *workload, measure time.Duration, o *outcome) error {
	d, err := setupDaemon(bins.linmond, w, o)
	if err != nil {
		return err
	}
	dr := driveDaemon(d, w, measure, 0, 1)
	dr.account(o)
	final, _ := sampleProc(d.cmd.Process.Pid)
	if _, err := d.stop(); err != nil {
		return err
	}
	if strings.Contains(d.logs.String(), "panic") {
		o.fail("linmond panicked: %s", d.logs.String())
	}
	ws, err := dr.windows()
	if err != nil {
		return err
	}
	sel := calm(ws.steal)
	o.set("events_per_s", "1/s", median(pick(ws.rate, sel)))
	o.set("ack_p50_ms", "ms", median(pick(ws.p50, sel)))
	o.set("ack_p99_ms", "ms", median(pick(ws.p99, sel)))
	o.set("cpu_ns_per_event", "ns", median(pick(ws.cpu, sel)))
	o.set("peak_rss_mb", "MB", float64(final.hwmKiB)/1024)
	o.notes["latency_samples"] = ws.samples
	o.notes["calm_sub_windows"] = sel
	o.notes["sub_windows"] = map[string][]float64{"events_per_s": ws.rate, "ack_p50_ms": ws.p50, "ack_p99_ms": ws.p99, "cpu_ns_per_event": ws.cpu, "steal_share": ws.steal}
	if w.durable {
		o.notes["state_dir_fs"] = fsType(w.dir)
	}
	return nil
}

// runOffline is the end-to-end run of offline-stream: linverify -stream on
// the envelope, repeated for the measured time.
func runOffline(bins binaries, w *workload, measure time.Duration, o *outcome) error {
	obj := w.lanes[0].objects[0]
	var setup []time.Duration
	for range setupRepeats {
		r, err := runTool(bins.linverify, "-stream", w.path("one.json"))
		if err != nil {
			return err
		}
		if r.code != 0 || !strings.HasPrefix(r.stdout, "linearizable") {
			o.fail("linverify -stream on a one-event envelope: exit %d: %s", r.code, r.stdout)
		}
		setup = append(setup, r.wall)
	}
	o.set("setup_s", "s", median(seconds(setup)))

	total := obj.events[len(obj.events)-1]
	want := fmt.Sprintf("%s with respect to %s (streamed %d events,", verdictWord(obj.verdicts[len(obj.verdicts)-1]), w.lanes[0].model.Name(), total)
	var rate, verdictMs, cpu, rss, steal []float64
	start := time.Now()
	for runs := 0; runs < 3 || time.Since(start) < measure; runs++ {
		st0, tot0 := hostTicks()
		r, err := runTool(bins.linverify, "-stream", w.path("stream.json"))
		st1, tot1 := hostTicks()
		o.attempted++
		if err != nil {
			return err
		}
		if !strings.HasPrefix(r.stdout, want) {
			o.failed++
			o.fail("linverify -stream disagrees with the reference: got %q, want prefix %q", strings.TrimSpace(r.stdout), want)
			continue
		}
		rate = append(rate, float64(total)/r.wall.Seconds())
		verdictMs = append(verdictMs, float64(r.wall.Nanoseconds())/1e6)
		cpu = append(cpu, float64(r.cpu.Nanoseconds())/float64(total))
		rss = append(rss, float64(r.rssKiB)/1024)
		steal = append(steal, stealShare(st0, tot0, st1, tot1))
	}
	if len(rate) == 0 {
		return fmt.Errorf("no linverify -stream run agreed with the reference")
	}
	// A batch job's only ack is its verdict: the ack percentiles are those of
	// the time from starting linverify to its verdict, over the calm runs.
	sel := calm(steal)
	o.set("events_per_s", "1/s", median(pick(rate, sel)))
	o.set("ack_p50_ms", "ms", quantile(pick(verdictMs, sel), 0.5))
	o.set("ack_p99_ms", "ms", quantile(pick(verdictMs, sel), 0.99))
	o.set("cpu_ns_per_event", "ns", median(pick(cpu, sel)))
	o.set("peak_rss_mb", "MB", median(rss))
	o.notes["calm_runs"] = sel
	o.notes["runs"] = map[string][]float64{"events_per_s": rate, "verdict_ms": verdictMs, "cpu_ns_per_event": cpu, "steal_share": steal}
	return nil
}

func verdictWord(v check.Verdict) string {
	if v == check.No {
		return "NOT linearizable"
	}
	return "linearizable"
}

// checkCorpus verifies the committed etcd register trace, a genuine stale
// read, through both linverify paths: each must say NOT linearizable.
func checkCorpus(bins binaries, repo string, o *outcome) {
	path := filepath.Join(repo, "testdata", "traces", "etcd-register.json")
	for _, args := range [][]string{{path}, {"-stream", path}} {
		r, err := runTool(bins.linverify, args...)
		if err != nil || r.code != 1 || !strings.HasPrefix(r.stdout, "NOT linearizable") {
			o.fail("linverify %v on the etcd trace: exit %d, %q, %v", args, r.code, strings.TrimSpace(r.stdout), err)
		}
	}
}
