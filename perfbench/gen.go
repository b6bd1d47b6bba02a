package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/check"
	"repro/internal/history"
	"repro/internal/monitorapi"
	"repro/internal/spec"
	"repro/internal/trace"
)

// concurrent generates a history of about nevents events in which procs
// processes run trace.OpGen operations fully concurrently and never crash. At
// every step one enabled move — invoke, take effect on the spec.Oracle, or
// return — is chosen uniformly, so each operation takes effect at a random
// instant inside its interval and the history is linearizable by
// construction. Once nevents events exist no process invokes again and the
// open operations run to completion.
func concurrent(model spec.Model, seed int64, procs, nevents int) history.History {
	rng := rand.New(rand.NewSource(seed))
	var uniq trace.UniqSource
	gen := trace.NewOpGen(model.Name(), seed+1, &uniq)
	oracle := spec.NewOracle(model)
	type flight struct {
		busy, applied bool
		op            spec.Operation
		res           spec.Response
	}
	fl := make([]flight, procs)
	h := make(history.History, 0, nevents+procs)
	enabled := make([]int, 0, procs)
	for {
		enabled = enabled[:0]
		for p := range fl {
			if fl[p].busy || len(h) < nevents {
				enabled = append(enabled, p)
			}
		}
		if len(enabled) == 0 {
			return h
		}
		p := enabled[rng.Intn(len(enabled))]
		f := &fl[p]
		switch {
		case !f.busy:
			op := gen.Next()
			*f = flight{busy: true, op: op}
			h = append(h, history.Event{Kind: history.Invoke, Proc: p, ID: op.Uniq, Op: op})
		case !f.applied:
			res, ok := oracle.Apply(f.op)
			if !ok {
				panic(fmt.Sprintf("oracle rejects generated %s operation %v", model.Name(), f.op))
			}
			f.res, f.applied = res, true
		default:
			h = append(h, history.Event{Kind: history.Return, Proc: p, ID: f.op.Uniq, Op: f.op, Res: f.res})
			*f = flight{}
		}
	}
}

// object is one monitored object's complete input: its history cut into
// batches, and the verdict of an in-process reference monitor (built with the
// lane's Config and fed the same batches) after every batch prefix.
type object struct {
	batches  []history.History
	frames   [][]byte        // NDJSON events frames, frames[i] carries seq i+1
	verdicts []check.Verdict // reference verdict after batches[:i+1]
	events   []int           // events in batches[:i+1]
}

// lane is one session's input: the model and Config it opens objects with,
// and the objects it streams, one after another, cycling.
type lane struct {
	name    string
	model   spec.Model
	cfg     check.Config
	objects []*object
}

// newObject cuts h into batches of size batch and runs the reference monitor
// over them.
func newObject(model spec.Model, cfg check.Config, h history.History, batch int) *object {
	o := &object{}
	ref := check.NewIncremental(model, check.WithConfig(cfg))
	total := 0
	for lo := 0; lo < len(h); lo += batch {
		b := h[lo:min(lo+batch, len(h))]
		o.batches = append(o.batches, b)
		o.verdicts = append(o.verdicts, ref.Append(b))
		total += len(b)
		o.events = append(o.events, total)
	}
	return o
}

// encodeFrames renders every batch as the NDJSON events frame a client sends.
func (o *object) encodeFrames() error {
	o.frames = make([][]byte, len(o.batches))
	for i, b := range o.batches {
		f, err := eventsFrame(uint64(i+1), b)
		if err != nil {
			return err
		}
		o.frames[i] = f
	}
	return nil
}

func eventsFrame(seq uint64, b history.History) ([]byte, error) {
	wire, err := history.ToWire(b)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(monitorapi.ClientFrame{
		Type:  monitorapi.FrameEvents,
		Batch: &monitorapi.EventBatch{Seq: seq, Events: wire},
	})
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// writeEnvelope writes h as a v1 interchange envelope, streaming the events
// so a large history never needs a second in-memory copy.
func writeEnvelope(path, model string, h history.History) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintf(w, `{"version":%d,"model":%q,"events":[`, monitorapi.HistoryFormatVersion, model)
	for lo := 0; lo < len(h); lo += 4096 {
		wire, err := history.ToWire(h[lo:min(lo+4096, len(h))])
		if err != nil {
			f.Close()
			return err
		}
		for i, e := range wire {
			raw, err := json.Marshal(e)
			if err != nil {
				f.Close()
				return err
			}
			if lo+i > 0 {
				w.WriteByte(',')
			}
			w.WriteByte('\n')
			w.Write(raw)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
