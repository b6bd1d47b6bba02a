package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/monitorapi"
)

// The load generator speaks the documented NDJSON session protocol with
// monitorapi frames on raw TCP connections, one session per lane at a time,
// instead of going through internal/monitorclient. Every batch's due, send
// and ack instants are then the generator's own, and a batch the server never
// acks stays visible as a failure — monitorclient would resend it on
// reconnect and pace around the window. Its bookkeeping is therefore outside
// the measured path.

// failCause says why a batch was never acked.
type failCause uint8

const (
	acked        failCause = iota
	failOverload           // the server aborted the session with an overload frame
	failError              // the server aborted the session with an error frame
	failConn               // the connection ended without a terminal frame
	failUnacked            // no ack by the end of the run's drain
	numCauses
)

var causeNames = [numCauses]string{"acked", "overload", "error", "conn", "unacked"}

// batchRec is one events batch as the generator saw it. Times are nanoseconds
// since the run's epoch; ack is 0 for a batch never acked.
type batchRec struct {
	due, sent, ack int64
	events         int32
	cause          failCause
}

// laneResult is everything one lane's session loop observed.
type laneResult struct {
	recs       []batchRec
	creditWait time.Duration // time the sender blocked on a full credit window
	opened     int           // objects opened (hellos received)
	aborts     [numCauses]int
	stats      []monitorapi.Stats // stats frames of objects closed with bye
	retained   int                // largest retained_events seen in a gauge or stats frame
	mismatch   []string
}

// loadgen drives one linmond from a single process.
type loadgen struct {
	addr   string
	epoch  time.Time
	stopAt int64 // no batch is sent at or after this instant
	// period, when positive, makes the loop open: a lane's batches fall due
	// every period nanoseconds whether or not earlier ones were acked. Zero
	// makes it closed: the next batch goes out as soon as the credit window
	// has room.
	period int64
	drain  time.Duration // how long unacked batches may take once sending stops
	// reserve is how many batches of the granted credit window the lane
	// leaves unused. linmond returns a batch's credit only after it has
	// written the batch's ack, so a client that reads that ack and refills
	// the last slot at once can find the server one batch over the window
	// and have its session aborted with overload. The writer returns credit
	// for one ack at a time, so a reserve of one slot never overruns; the
	// measured loops use it and only the overload probe runs with none.
	reserve int
}

func (lg *loadgen) now() int64 { return int64(time.Since(lg.epoch)) }

// run drives every lane concurrently until stopAt and returns their results.
func (lg *loadgen) run(lanes []*lane) []*laneResult {
	out := make([]*laneResult, len(lanes))
	var wg sync.WaitGroup
	for i, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = lg.runLane(l)
		}()
	}
	wg.Wait()
	return out
}

// runLane streams the lane's objects one after another, each as a fresh
// object name, until sending stops. An aborted session is not retried: the
// lane moves on to a fresh object.
func (lg *loadgen) runLane(l *lane) *laneResult {
	res := &laneResult{}
	var due int64 // open loop: the lane's schedule, continuous across objects
	for n := 0; lg.now() < lg.stopAt && due < lg.stopAt; n++ {
		lg.runObject(l, l.objects[n%len(l.objects)], fmt.Sprintf("%s-%d", l.name, n), res, &due)
	}
	return res
}

// srvMsg is one server frame handed from a connection's reader goroutine to
// its sender, stamped with its arrival time.
type srvMsg struct {
	typ     string
	seq     uint64
	verdict string
	at      int64
	stats   *monitorapi.Stats
}

var byeFrame = []byte(`{"type":"bye"}` + "\n")

// openFrame is the NDJSON open frame for one object.
func openFrame(tenant, object, model string, cfg check.Config) []byte {
	raw, err := json.Marshal(monitorapi.ClientFrame{Type: monitorapi.FrameOpen, Open: &monitorapi.Open{
		Version: monitorapi.ProtocolVersion, Tenant: tenant, Object: object, Model: model, Config: cfg,
	}})
	if err != nil {
		panic(err) // the frame types always marshal
	}
	return append(raw, '\n')
}

func (lg *loadgen) runObject(l *lane, obj *object, name string, res *laneResult, due *int64) {
	conn, err := net.Dial("tcp", lg.addr)
	if err != nil {
		res.aborts[failConn]++
		time.Sleep(10 * time.Millisecond)
		return
	}
	defer conn.Close()
	// Nothing may block past the end of the run's drain, even against a
	// server that stops answering.
	conn.SetDeadline(lg.epoch.Add(time.Duration(lg.stopAt) + lg.drain))
	dec := json.NewDecoder(bufio.NewReaderSize(conn, 64<<10))
	var hello monitorapi.ServerFrame
	if _, err := conn.Write(openFrame("bench", name, l.model.Name(), l.cfg)); err != nil || dec.Decode(&hello) != nil {
		res.aborts[failConn]++
		return
	}
	if hello.Type != monitorapi.FrameHello {
		res.aborts[failError]++
		res.mismatch = append(res.mismatch, fmt.Sprintf("%s: open answered by %s %q", name, hello.Type, hello.Err))
		return
	}
	res.opened++
	window := hello.Window

	// Buffered so the reader can run a little ahead of a sender busy writing;
	// the sender drains it until the reader closes it, so the reader never
	// blocks for good.
	msgs := make(chan srvMsg, 64)
	readerRetained := 0
	go func() {
		defer close(msgs)
		for {
			var f monitorapi.ServerFrame
			if dec.Decode(&f) != nil {
				return
			}
			if f.Type == monitorapi.FrameGauge {
				if f.Gauge != nil {
					readerRetained = max(readerRetained, f.Gauge.RetainedEvents)
				}
				continue
			}
			msgs <- srvMsg{typ: f.Type, seq: f.Seq, verdict: f.Verdict, at: lg.now(), stats: f.Stats}
		}
	}()

	first := len(res.recs) // record of seq 1
	inflight, lastAck := 0, 0
	lastVerdict := ""
	abort := acked
	var stats *srvMsg
	closed := false
	handle := func(m srvMsg, ok bool) {
		if !ok {
			closed = true
			return
		}
		switch m.typ {
		case monitorapi.FrameAck:
			i := first + int(m.seq) - 1
			if m.seq == 0 || i >= len(res.recs) || res.recs[i].ack != 0 {
				res.mismatch = append(res.mismatch, fmt.Sprintf("%s: unexpected ack for seq %d", name, m.seq))
				return
			}
			res.recs[i].ack = m.at
			inflight--
			if int(m.seq) > lastAck {
				lastAck, lastVerdict = int(m.seq), m.verdict
			}
		case monitorapi.FrameStats:
			if m.stats == nil {
				res.mismatch = append(res.mismatch, fmt.Sprintf("%s: stats frame without counters", name))
				return
			}
			stats = &m
		case monitorapi.FrameOverload:
			abort = failOverload
		case monitorapi.FrameError:
			abort = failError
		}
	}
	poll := func() {
		for !closed {
			select {
			case m, ok := <-msgs:
				handle(m, ok)
			default:
				return
			}
		}
	}

	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for seq := 1; seq <= len(obj.frames) && !closed; seq++ {
		d := int64(-1)
		if lg.period > 0 {
			d = *due
			if d >= lg.stopAt {
				break
			}
			*due += lg.period
			for now := lg.now(); now < d && !closed; now = lg.now() {
				timer.Reset(time.Duration(d - now))
				select {
				case m, ok := <-msgs:
					handle(m, ok)
				case <-timer.C:
				}
			}
		} else if lg.now() >= lg.stopAt {
			break
		}
		if inflight >= window-lg.reserve {
			t := time.Now()
			for inflight >= window-lg.reserve && !closed {
				m, ok := <-msgs
				handle(m, ok)
			}
			res.creditWait += time.Since(t)
		}
		if closed {
			break
		}
		sent := lg.now()
		if d < 0 {
			d = sent
		}
		res.recs = append(res.recs, batchRec{due: d, sent: sent, events: int32(len(obj.batches[seq-1]))})
		if _, err := conn.Write(obj.frames[seq-1]); err != nil {
			break // the reader reports why the server went away
		}
		inflight++
		poll()
	}

	// Sending is over: collect the outstanding acks, then close the object
	// cleanly with bye and wait for its stats frame.
	conn.SetReadDeadline(time.Now().Add(lg.drain))
	for inflight > 0 && !closed {
		m, ok := <-msgs
		handle(m, ok)
	}
	if !closed && abort == acked {
		if _, err := conn.Write(byeFrame); err == nil {
			for !closed {
				m, ok := <-msgs
				handle(m, ok)
			}
		}
	}
	conn.Close()
	for !closed {
		m, ok := <-msgs
		handle(m, ok)
	}
	res.retained = max(res.retained, readerRetained)

	cause := abort
	if cause == acked {
		cause = failConn
		if inflight > 0 && lg.now() >= lg.stopAt {
			cause = failUnacked
		}
	}
	unacked := false
	for i := first; i < len(res.recs); i++ {
		if res.recs[i].ack == 0 {
			res.recs[i].cause = cause
			unacked = true
		}
	}
	if unacked || abort != acked {
		res.aborts[cause]++
	}

	// Verdicts: the last ack and the stats frame must match the reference
	// monitor fed the same acked batches.
	if lastAck > 0 {
		if want := obj.verdicts[lastAck-1].String(); lastVerdict != want {
			res.mismatch = append(res.mismatch, fmt.Sprintf("%s: ack %d verdict %s, reference %s", name, lastAck, lastVerdict, want))
		}
	}
	if stats != nil {
		res.stats = append(res.stats, *stats.stats)
		res.retained = max(res.retained, stats.stats.Check.RetainedEvents)
		switch {
		case lastAck == 0:
			if stats.verdict != "Yes" || stats.stats.Check.Events != 0 {
				res.mismatch = append(res.mismatch, fmt.Sprintf("%s: verdict %s on %d events before any ack", name, stats.verdict, stats.stats.Check.Events))
			}
		case stats.verdict != obj.verdicts[lastAck-1].String():
			res.mismatch = append(res.mismatch, fmt.Sprintf("%s: final verdict %s, reference %s", name, stats.verdict, obj.verdicts[lastAck-1]))
		case stats.stats.Check.Events != obj.events[lastAck-1]:
			res.mismatch = append(res.mismatch, fmt.Sprintf("%s: server applied %d events, %d acked", name, stats.stats.Check.Events, obj.events[lastAck-1]))
		}
	} else if abort == acked && !unacked {
		res.mismatch = append(res.mismatch, fmt.Sprintf("%s: no stats frame after bye", name))
	}
}
