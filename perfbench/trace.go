package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/history"
	"repro/internal/monitorapi"
)

// Layers a batch crosses, in the order the traced replay calls them. Each is
// a span around one public call of the named package.
const (
	lBatch      = iota // root span of one batch
	lEncode            // history.ToWire + json.Marshal of the events frame
	lDecode            // the server's json.Decoder into a reused monitorapi.ClientFrame
	lFromWire          // history.FromWire
	lAppend            // check.Incremental.Append
	lAckEncode         // json.Encoder of the monitorapi.ServerFrame ack
	lCkptImage         // check.Incremental.Checkpoint
	lCkptEncode        // monitorapi.EncodeCheckpoint
	lCkptSave          // ckpt.Store.Save
	lStreamNext        // monitorapi.HistoryReader.Next, one chunk of calls
	numLayers
)

var layerNames = [numLayers]string{
	"batch", "monitorapi.frame_encode", "monitorapi.frame_decode", "history.fromwire",
	"check.append", "monitorapi.ack_encode", "ckpt.image", "ckpt.encode", "ckpt.save",
	"monitorapi.stream_next",
}

// span is one timed call. Spans of one batch share batch; parent indexes the
// enclosing span (-1 for a root).
type span struct {
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
	Parent int32 `json:"parent"`
	Batch  int32 `json:"batch"`
	Layer  uint8 `json:"layer"`
}

// tracer keeps spans in memory; with on false it records nothing and costs a
// branch per call.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func (t *tracer) begin(layer uint8, parent, batch int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Start: int64(time.Since(t.epoch)), Parent: parent, Batch: batch, Layer: layer})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// selfTimes sums, per layer, each span's duration minus the part its child
// spans cover, and the durations of each layer's spans.
func (t *tracer) selfTimes() (self [numLayers]int64, durs [numLayers][]float64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		self[s.Layer] += s.End - s.Start - child[i]
		durs[s.Layer] = append(durs[s.Layer], float64(s.End-s.Start))
	}
	return self, durs
}

// lineFeed hands a json.Decoder one frame at a time, as a connection would.
type lineFeed struct{ b []byte }

func (f *lineFeed) Read(p []byte) (int, error) {
	if len(f.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.b)
	f.b = f.b[n:]
	return n, nil
}

// frameDecoder decodes events frames the way the daemon's connection reader
// does: one json.Decoder per connection filling one reused EventBatch, whose
// backing array is cleared first because the wire omits zero fields.
type frameDecoder struct {
	feed  lineFeed
	dec   *json.Decoder
	batch monitorapi.EventBatch
}

func newFrameDecoder() *frameDecoder {
	fd := &frameDecoder{}
	fd.dec = json.NewDecoder(&fd.feed)
	return fd
}

func (fd *frameDecoder) decode(frame []byte) error {
	fd.feed.b = frame
	fd.batch.Seq = 0
	clear(fd.batch.Events[:cap(fd.batch.Events)])
	fd.batch.Events = fd.batch.Events[:0]
	return fd.dec.Decode(&monitorapi.ClientFrame{Batch: &fd.batch})
}

// replayLane runs one lane's objects through every layer in-process, the way
// the daemon would handle them, with the lane's Config.
type replayLane struct {
	l        *lane
	obj, pos int
	inc      *check.Incremental
	fd       *frameDecoder
	ack      bytes.Buffer
	ackEnc   *json.Encoder
	tag, key string
	gen      uint64
	since    int
	objects  int
	finished check.IncStats // summed stats of monitors already replaced
}

type replayer struct {
	lanes    []*replayLane
	store    *ckpt.Store
	tr       *tracer
	batches  int32
	events   int
	bytes    int
	ckptSize []float64
	retained int
	problems []string
	busy     time.Duration // time spent in run
}

// newReplayer starts a replay of w's lanes; tag keeps its checkpoint keys
// apart from other replays sharing the store.
func newReplayer(w *workload, store *ckpt.Store, tag string) *replayer {
	r := &replayer{store: store, tr: &tracer{epoch: time.Now()}}
	for _, l := range w.lanes {
		rl := &replayLane{l: l, tag: tag, fd: newFrameDecoder()}
		rl.ackEnc = json.NewEncoder(&rl.ack)
		rl.reset()
		r.lanes = append(r.lanes, rl)
	}
	return r
}

func (rl *replayLane) reset() {
	if rl.inc != nil {
		addStats(&rl.finished, rl.inc.Stats())
	}
	rl.inc = check.NewIncremental(rl.l.model, check.WithConfig(rl.l.cfg))
	rl.key = fmt.Sprintf("%s-%s-%d", rl.tag, rl.l.name, rl.objects)
	rl.gen, rl.since, rl.pos = 0, 0, 0
	rl.objects++
}

// addStats accumulates the cumulative counters of one monitor into sum.
func addStats(sum *check.IncStats, s check.IncStats) {
	sum.Events += s.Events
	sum.SegChecks += s.SegChecks
	sum.SegExplored += s.SegExplored
	sum.FastTierHits += s.FastTierHits
	sum.FastTierFallbacks += s.FastTierFallbacks
	sum.Compactions += s.Compactions
	sum.CommitCuts += s.CommitCuts
	sum.FrontierOverflows += s.FrontierOverflows
	sum.MaxSegment = max(sum.MaxSegment, s.MaxSegment)
}

// replaySlices is how many alternating slices the untraced and the traced
// layer replay each run in.
const replaySlices = 20

// run replays batches round-robin over the lanes for d.
func (r *replayer) run(d time.Duration) {
	start := time.Now()
	for time.Since(start) < d {
		for _, rl := range r.lanes {
			r.step(rl)
		}
	}
	r.busy += time.Since(start)
}

func (r *replayer) step(rl *replayLane) {
	tr, id := r.tr, r.batches
	r.batches++
	obj := rl.l.objects[rl.obj]
	b := obj.batches[rl.pos]
	seq := uint64(rl.pos + 1)

	root := tr.begin(lBatch, -1, id)
	s := tr.begin(lEncode, root, id)
	frame, err := eventsFrame(seq, b)
	tr.end(s)
	if err != nil {
		r.problems = append(r.problems, err.Error())
		return
	}
	r.bytes += len(frame)
	r.events += len(b)

	s = tr.begin(lDecode, root, id)
	err = rl.fd.decode(frame)
	tr.end(s)
	if err != nil || rl.fd.batch.Seq != seq {
		r.problems = append(r.problems, fmt.Sprintf("frame decode: seq %d, %v", rl.fd.batch.Seq, err))
		return
	}

	s = tr.begin(lFromWire, root, id)
	h, err := history.FromWire(rl.fd.batch.Events)
	tr.end(s)
	if err != nil {
		r.problems = append(r.problems, err.Error())
		return
	}

	s = tr.begin(lAppend, root, id)
	v := rl.inc.Append(h)
	tr.end(s)
	if v != obj.verdicts[rl.pos] {
		r.problems = append(r.problems, fmt.Sprintf("replay %s batch %d: verdict %s, reference %s", rl.key, seq, v, obj.verdicts[rl.pos]))
	}
	r.retained = max(r.retained, rl.inc.Stats().RetainedEvents)

	s = tr.begin(lAckEncode, root, id)
	rl.ack.Reset()
	err = rl.ackEnc.Encode(monitorapi.ServerFrame{Type: monitorapi.FrameAck, Seq: seq, Verdict: v.String()})
	tr.end(s)
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}

	if rl.since++; rl.since >= pacedCkpt {
		rl.since = 0
		r.checkpoint(rl, root, id, seq)
	}
	tr.end(root)

	if rl.pos++; rl.pos == len(obj.batches) {
		rl.obj = (rl.obj + 1) % len(rl.l.objects)
		rl.reset()
	}
}

// checkpoint takes the daemon's checkpoint of the lane's monitor: image,
// payload encoding and a durable save.
func (r *replayer) checkpoint(rl *replayLane, root, id int32, seq uint64) {
	tr := r.tr
	s := tr.begin(lCkptImage, root, id)
	img, err := rl.inc.Checkpoint()
	tr.end(s)
	if err != nil {
		r.problems = append(r.problems, err.Error())
		return
	}
	s = tr.begin(lCkptEncode, root, id)
	payload, err := monitorapi.EncodeCheckpoint(&monitorapi.Checkpoint{
		Tenant: "bench", Object: rl.key, Model: rl.l.model.Name(), Config: rl.l.cfg,
		AppliedSeq: seq, Monitor: img,
	})
	tr.end(s)
	if err != nil {
		r.problems = append(r.problems, err.Error())
		return
	}
	s = tr.begin(lCkptSave, root, id)
	gen, err := r.store.Save(rl.key, rl.gen, payload)
	tr.end(s)
	if err != nil {
		r.problems = append(r.problems, err.Error())
		return
	}
	rl.gen = gen
	r.ckptSize = append(r.ckptSize, float64(len(payload)))
}

// totals sums the check counters of every monitor the replay built.
func (r *replayer) totals() check.IncStats {
	var sum check.IncStats
	for _, rl := range r.lanes {
		addStats(&sum, rl.finished)
		addStats(&sum, rl.inc.Stats())
	}
	return sum
}

// decodeAllocs is the mean heap allocations of one events-frame decode into
// the reused buffer, over the first object's frames.
func decodeAllocs(obj *object) (float64, error) {
	n := min(len(obj.batches), 64)
	frames := make([][]byte, n)
	for i := range frames {
		f, err := eventsFrame(uint64(i+1), obj.batches[i])
		if err != nil {
			return 0, err
		}
		frames[i] = f
	}
	fd := newFrameDecoder()
	decodeAll := func() error {
		for _, f := range frames {
			if err := fd.decode(f); err != nil {
				return err
			}
		}
		return nil
	}
	if err := decodeAll(); err != nil { // warm the buffers
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decodeAll()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), err
}

// streamPass reads an envelope through monitorapi.HistoryReader: once
// untraced counting allocations, then traced in chunks of offlineChunk Next
// calls for at most d. It returns allocations and self time per event.
func streamPass(path string, d time.Duration, tr *tracer) (allocs, nsPerEvent float64, err error) {
	var before, after runtime.MemStats
	read := func(limit int, timed bool) (int, error) {
		f, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		hr, err := monitorapi.NewHistoryReader(f)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		n := 0
		for n < limit && (!timed || time.Since(start) < d) {
			s := tr.begin(lStreamNext, -1, -1)
			for range offlineChunk {
				if _, _, err = hr.Next(); err != nil {
					break
				}
				n++
			}
			tr.end(s)
			if err == io.EOF {
				return n, nil
			}
			if err != nil {
				return n, err
			}
		}
		return n, nil
	}
	on := tr.on
	tr.on = false
	runtime.ReadMemStats(&before)
	n, err := read(100000, false)
	runtime.ReadMemStats(&after)
	tr.on = on
	if err != nil || n == 0 {
		return 0, 0, fmt.Errorf("stream pass: %d events, %v", n, err)
	}
	allocs = float64(after.Mallocs-before.Mallocs) / float64(n)
	first := len(tr.spans)
	n, err = read(1<<62, true)
	var self int64
	for _, s := range tr.spans[first:] {
		self += s.End - s.Start
	}
	return allocs, ratio(float64(self), float64(n)), err
}

// runTraced is the traced run of a workload: the in-process layer replay
// (untraced, then traced, for the overhead), the stream pass, and for the
// daemon workloads a run of the real linmond with the generator's own
// per-layer counters.
func runTraced(bins binaries, w *workload, measure time.Duration, o *outcome, spansPath string) error {
	store, err := ckpt.NewStore(ckpt.OsFS{}, w.path("trace-state"))
	if err != nil {
		return err
	}
	quarter := measure / 4

	// Layer replay: the same input, spans off and on, in alternating slices
	// so that a change in the host's load is shared by both and does not
	// read as tracing overhead.
	plain := newReplayer(w, store, "plain")
	rp := newReplayer(w, store, "traced")
	rp.tr.on = true
	for range replaySlices {
		plain.run(quarter / replaySlices)
		rp.run(quarter / replaySlices)
	}
	plainRate := float64(plain.events) / plain.busy.Seconds()
	tracedRate := float64(rp.events) / rp.busy.Seconds()
	o.problems = append(o.problems, plain.problems...)
	o.problems = append(o.problems, rp.problems...)
	o.attempted += int(plain.batches + rp.batches)
	o.set("trace.overhead_pct", "%", 100*(plainRate-tracedRate)/plainRate)

	self, durs := rp.tr.selfTimes()
	ev := float64(rp.events)
	o.set("monitorapi.frame_encode_ns_per_event", "ns", float64(self[lEncode])/ev)
	o.set("monitorapi.frame_bytes_per_event", "B", float64(rp.bytes)/ev)
	o.set("monitorapi.frame_decode_ns_per_event", "ns", float64(self[lDecode])/ev)
	o.set("history.fromwire_ns_per_event", "ns", float64(self[lFromWire])/ev)
	o.set("check.append_ns_per_event", "ns", float64(self[lAppend])/ev)
	o.set("monitorapi.ack_encode_ns_per_batch", "ns", ratio(float64(self[lAckEncode]), float64(len(durs[lAckEncode]))))
	o.set("ckpt.image_us", "us", median(durs[lCkptImage])/1e3)
	o.set("ckpt.encode_us", "us", median(durs[lCkptEncode])/1e3)
	o.set("ckpt.save_ms_p50", "ms", quantile(durs[lCkptSave], 0.5)/1e6)
	o.set("ckpt.save_ms_p99", "ms", quantile(durs[lCkptSave], 0.99)/1e6)
	o.set("ckpt.bytes_per_checkpoint", "B", median(rp.ckptSize))
	st := rp.totals()
	o.set("check.segchecks_per_kevent", "count", ratio(float64(st.SegChecks), float64(st.Events)/1000))
	o.set("check.explored_per_segcheck", "count", ratio(float64(st.SegExplored), float64(st.SegChecks)))
	o.set("check.fasttier_hit_ratio", "ratio", ratio(float64(st.FastTierHits), float64(st.FastTierHits+st.FastTierFallbacks)))
	// The daemon workloads overwrite these four from their stats frames.
	o.set("check.max_segment_events", "count", float64(st.MaxSegment))
	o.set("check.frontier_overflows", "count", float64(st.FrontierOverflows))
	o.set("check.cuts_per_kevent", "count", ratio(float64(st.Compactions+st.CommitCuts), float64(st.Events)/1000))
	o.set("check.retained_events_max", "count", float64(rp.retained))
	o.notes["layers"] = layerTable(self, durs, ev)
	o.notes["replay_events_per_s"] = map[string]float64{"untraced": plainRate, "traced": tracedRate}

	allocs, err := decodeAllocs(w.lanes[0].objects[0])
	if err != nil {
		return err
	}
	o.set("monitorapi.frame_decode_allocs_per_batch", "count", allocs)

	// Stream layer: the offline workload's own envelope, otherwise the
	// first object of the workload written as one.
	env := w.path("stream.json")
	if !w.offline {
		env = w.path("trace-envelope.json")
		l := w.lanes[0]
		var h history.History
		for _, b := range l.objects[0].batches {
			h = append(h, b...)
		}
		if err := writeEnvelope(env, l.model.Name(), h); err != nil {
			return err
		}
	}
	allocs, perEvent, err := streamPass(env, quarter, rp.tr)
	if err != nil {
		return err
	}
	o.set("monitorapi.stream_allocs_per_event", "count", allocs)
	o.set("monitorapi.stream_next_ns_per_event", "ns", perEvent)

	if err := writeSpans(spansPath, rp.tr.spans); err != nil {
		return err
	}

	// The generator's and the service's counters from a real daemon run:
	// the end-to-end closed loop, or for durable-paced an open loop at
	// pacedRate, with ack latency from each batch's due time.
	if w.offline {
		// No daemon and no generator: these layers do no work here.
		for name, unit := range daemonLayerUnits {
			o.set(name, unit, 0)
		}
		return nil
	}
	args, err := w.daemonArgs("traced")
	if err != nil {
		return err
	}
	d, err := startDaemon(bins.linmond, args...)
	if err != nil {
		return err
	}
	dr := driveDaemon(d, w, measure/2, w.period(w.paced), 1)
	dr.account(o)
	if _, err := d.stop(); err != nil {
		return err
	}
	overloads, err := overloadProbe(bins, w, o)
	if err != nil {
		return err
	}
	res, w0, w1 := dr.res, dr.bounds[0], dr.bounds[subWindows]
	loadCPU := dr.selfCPU[subWindows] - dr.selfCPU[0]
	events, lat := windowAcks(res, w0, w1)
	var wait time.Duration
	var late []float64
	var aborts [numCauses]int
	opened, maxSeg, overflows, cuts, applied, retained := 0, 0, 0, 0, 0, 0
	for _, r := range res {
		wait += r.creditWait
		opened += r.opened
		for i, n := range r.aborts {
			aborts[i] += n
		}
		retained = max(retained, r.retained)
		for _, b := range r.recs {
			if b.sent >= w0 && b.sent <= w1 {
				late = append(late, float64(b.sent-b.due)/1e6)
			}
		}
		for _, s := range r.stats {
			maxSeg = max(maxSeg, s.Check.MaxSegment)
			overflows += s.Check.FrontierOverflows
			cuts += s.Check.Compactions + s.Check.CommitCuts
			applied += s.Check.Events
		}
	}
	elapsed := time.Duration(int64(warmup) + int64(measure/2))
	o.set("monitorserver.credit_wait_share", "ratio", wait.Seconds()/(elapsed.Seconds()*float64(len(res))))
	o.set("monitorserver.overload_aborts", "count", float64(overloads))
	o.set("monitorserver.error_aborts", "count", float64(aborts[failError]))
	o.set("monitorserver.conn_errors", "count", float64(aborts[failConn]))
	o.set("monitorserver.objects_opened", "count", float64(opened))
	o.set("loadgen.ack_p50_ms", "ms", quantile(lat, 0.5))
	o.set("loadgen.ack_p99_ms", "ms", quantile(lat, 0.99))
	o.set("loadgen.late_ms_p99", "ms", quantile(late, 0.99))
	o.set("loadgen.cpu_ns_per_event", "ns", ratio(float64(loadCPU.Nanoseconds()), float64(events)))
	if applied > 0 {
		o.set("check.max_segment_events", "count", float64(maxSeg))
		o.set("check.frontier_overflows", "count", float64(overflows))
		o.set("check.cuts_per_kevent", "count", float64(cuts)/(float64(applied)/1000))
		o.set("check.retained_events_max", "count", float64(retained))
	}
	return nil
}

// probeTime is how long the overload probe drives a fresh daemon.
const probeTime = 3 * time.Second

// overloadProbe drives a fresh daemon in a closed loop at the full granted
// window, with no reserve, and returns how many sessions the server aborted
// with overload. Its batches are not operations of the run: the probe exists
// to show the credit-return race the measured loops step around (see
// loadgen.reserve), and a server that returns credit before writing the ack
// makes it 0. Its acked verdicts are still checked.
func overloadProbe(bins binaries, w *workload, o *outcome) (int, error) {
	args, err := w.daemonArgs("probe")
	if err != nil {
		return 0, err
	}
	d, err := startDaemon(bins.linmond, args...)
	if err != nil {
		return 0, err
	}
	dr := driveDaemon(d, w, probeTime, 0, 0)
	if _, err := d.stop(); err != nil {
		return 0, err
	}
	n := 0
	for _, r := range dr.res {
		o.problems = append(o.problems, r.mismatch...)
		n += r.aborts[failOverload]
	}
	return n, nil
}

// layerTable is the per-layer self time of the traced replay, for the result
// record.
func layerTable(self [numLayers]int64, durs [numLayers][]float64, events float64) []map[string]any {
	var total int64
	for _, s := range self {
		total += s
	}
	var out []map[string]any
	for l := range numLayers {
		if len(durs[l]) == 0 || l == lStreamNext {
			continue
		}
		out = append(out, map[string]any{
			"layer": layerNames[l], "spans": len(durs[l]),
			"self_ns_per_event": float64(self[l]) / events,
			"self_share":        ratio(float64(self[l]), float64(total)),
		})
	}
	return out
}

// writeSpans writes the traced replay's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if err := enc.Encode(struct {
			ID   int    `json:"id"`
			Name string `json:"name"`
			span
		}{ID: i, Name: layerNames[s.Layer], span: s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// daemonLayerUnits are the per-layer metrics only a daemon run measures.
var daemonLayerUnits = map[string]string{
	"monitorserver.credit_wait_share": "ratio",
	"monitorserver.overload_aborts":   "count",
	"monitorserver.error_aborts":      "count",
	"monitorserver.conn_errors":       "count",
	"monitorserver.objects_opened":    "count",
	"loadgen.ack_p50_ms":              "ms",
	"loadgen.ack_p99_ms":              "ms",
	"loadgen.late_ms_p99":             "ms",
	"loadgen.cpu_ns_per_event":        "ns",
}
