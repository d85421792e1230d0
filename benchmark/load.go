package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"newtop/internal/core"
	"newtop/internal/ids"
)

// recorder collects one generator's samples. Operations are attributed to
// the measured window by completion time; warm-up and drain operations are
// still checked and counted in attempted/failed.
type recorder struct {
	start, end time.Time
	lat        []int64  // ns, every op completed inside the window
	wlat       []int64  // ns, ordered (write) ops only, when the workload also reads
	slices     []uint32 // completions per one-second slice of the window
	wslices    []uint32 // the same for wlat
	late       []int64  // ns, paced generator: how late each call was issued
	spans      []int64  // ns, traced pass: time spent inside InvokeAsync
	lastDone   time.Time
	attempted  uint64
	failed     uint64
}

// samplesPerSecond presizes a recorder's latency buffer, generously for the
// fastest generator (read_mix, ~15k ops/s per client), so that it never
// grows — and allocates — inside a measured window.
const samplesPerSecond = 50000

func newRecorder(start time.Time, window time.Duration) *recorder {
	n := int(window.Seconds() * samplesPerSecond)
	return &recorder{
		start:   start,
		end:     start.Add(window),
		lat:     make([]int64, 0, n),
		slices:  make([]uint32, int(window/time.Second)),
		wslices: make([]uint32, int(window/time.Second)),
	}
}

// done accounts one finished operation issued (or, paced, due) at t0 and
// completed at t1; mixedWrite marks the ordered operations of a workload
// that also reads, which are sampled a second time on their own.
func (r *recorder) done(t0, t1 time.Time, mixedWrite, ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
	if t1.Before(r.start) || !t1.Before(r.end) {
		return
	}
	// Samples are appended in completion order, so slice i's samples are
	// the slices[i] entries of lat that follow those of the slices before.
	d := int64(t1.Sub(t0))
	i := int(t1.Sub(r.start) / time.Second)
	r.lat = append(r.lat, d)
	if i < len(r.slices) {
		r.slices[i]++
	}
	if mixedWrite {
		r.wlat = append(r.wlat, d)
		if i < len(r.wslices) {
			r.wslices[i]++
		}
	}
	r.lastDone = t1
}

const versions = 4 // distinct values each key cycles through

// client is one load-generating client: its binding, its private slice of
// the key space and the seeded order it walks it in. Keys are disjoint
// between clients, so every read has exactly one correct answer: the value
// this client last put.
type client struct {
	id     int
	b      *core.Binding
	keys   []string
	puts   [][]byte // puts[k*versions+v] is the "key=value" argument for version v of key k
	ver    []int8   // version last written per key, -1 before the first write
	order  []int    // seeded write order, cycled
	next   int
	rng    uint64 // xorshift state picking read keys
	writes atomic.Uint64
	rec    *recorder
}

func newClient(id int, b *core.Binding, seed int64) *client {
	rnd := rand.New(rand.NewSource(seed*7919 + int64(id)))
	cl := &client{
		id:    id,
		b:     b,
		keys:  make([]string, keysPerClient),
		puts:  make([][]byte, keysPerClient*versions),
		ver:   make([]int8, keysPerClient),
		order: rnd.Perm(keysPerClient),
		rng:   rnd.Uint64() | 1,
	}
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	for k := range cl.keys {
		cl.keys[k] = fmt.Sprintf("c%d-k%04d", id, k)
		cl.ver[k] = -1
		for v := 0; v < versions; v++ {
			arg := make([]byte, 0, len(cl.keys[k])+1+valueBytes)
			arg = append(arg, cl.keys[k]...)
			arg = append(arg, '=')
			for i := 0; i < valueBytes; i++ {
				arg = append(arg, alphabet[rnd.Intn(len(alphabet))])
			}
			cl.puts[k*versions+v] = arg
		}
	}
	return cl
}

// value returns version v of key k as the servant stores it.
func (cl *client) value(k int, v int8) []byte {
	return cl.puts[k*versions+int(v)][len(cl.keys[k])+1:]
}

// nextWrite advances the write order and returns the put argument.
func (cl *client) nextWrite() []byte {
	k := cl.order[cl.next%len(cl.order)]
	cl.next++
	v := (cl.ver[k] + 1) % versions
	cl.ver[k] = v
	return cl.puts[k*versions+int(v)]
}

// nextRead picks a key and returns it with the only correct answer.
func (cl *client) nextRead() (key []byte, want []byte) {
	cl.rng ^= cl.rng << 13
	cl.rng ^= cl.rng >> 7
	cl.rng ^= cl.rng << 17
	k := int(cl.rng % uint64(len(cl.keys)))
	arg := cl.puts[k*versions]
	key = arg[:len(cl.keys[k])]
	if cl.ver[k] >= 0 {
		want = cl.value(k, cl.ver[k])
	}
	return key, want
}

// lastWritten adds this client's acknowledged final state to m.
func (cl *client) lastWritten(m map[string]string) {
	for k, v := range cl.ver {
		if v >= 0 {
			m[cl.keys[k]] = string(cl.value(k, v))
		}
	}
}

var replyOK = []byte("ok")

// checkWrite verifies one put's reply set against its mode: enough replies,
// from distinct servers, none an error, each the servant's "ok".
func checkWrite(replies []core.Reply, err error, mode core.ReplyMode) bool {
	if err != nil {
		return false
	}
	need := 1
	switch mode {
	case core.Majority:
		need = ids.Majority(replicas)
	case core.All:
		need = replicas
	}
	if len(replies) < need {
		return false
	}
	for i, r := range replies {
		if r.Err != nil || !bytes.Equal(r.Payload, replyOK) {
			return false
		}
		for _, q := range replies[:i] {
			if q.Server == r.Server {
				return false
			}
		}
	}
	return true
}

// plan is one timed pass over a built world.
type plan struct {
	start  time.Time
	window time.Duration
	traced bool
}

func (p plan) end() time.Time { return p.start.Add(p.window) }

// warm issues n synchronous puts in the workload's own mode.
func (cl *client) warm(ctx context.Context, spec *workload, n int) error {
	for i := 0; i < n; i++ {
		replies, err := cl.b.Call(ctx, "put", cl.nextWrite(), spec.opts...)
		if !checkWrite(replies, err, spec.mode) {
			return fmt.Errorf("client %d warm-up put: replies=%d err=%v", cl.id, len(replies), err)
		}
		cl.writes.Add(1)
	}
	return nil
}

// put performs one blocking ordered write and accounts it. The traced pass
// splits Call into its two halves to time the launch on its own.
func (cl *client) put(ctx context.Context, spec *workload, p plan, t0 time.Time) time.Time {
	var replies []core.Reply
	var err error
	arg := cl.nextWrite()
	if p.traced {
		var call *core.Call
		if call, err = cl.b.InvokeAsync(ctx, "put", arg, spec.opts...); err == nil {
			cl.rec.spans = append(cl.rec.spans, int64(time.Since(t0)))
			replies, err = call.Await(ctx)
			call.Cancel()
		}
	} else {
		replies, err = cl.b.Call(ctx, "put", arg, spec.opts...)
	}
	t1 := time.Now()
	ok := checkWrite(replies, err, spec.mode)
	if ok {
		cl.writes.Add(1)
	}
	cl.rec.done(t0, t1, spec.readsPerWrite > 0, ok)
	return t1
}

// closedLoop is the closed-loop generator: the next operation starts when
// the previous one completed, spec.readsPerWrite leased reads between
// consecutive writes.
func (cl *client) closedLoop(ctx context.Context, spec *workload, p plan) {
	end := p.end()
	t := time.Now()
	for t.Before(end) && ctx.Err() == nil {
		for i := 0; i < spec.readsPerWrite && t.Before(end); i++ {
			key, want := cl.nextRead()
			got, err := cl.b.Read(ctx, "get", key)
			t1 := time.Now()
			cl.rec.done(t, t1, false, err == nil && bytes.Equal(got, want))
			t = t1
		}
		t = cl.put(ctx, spec, p, t)
	}
}

// inflight is one launched call on its way to the reaper (call is nil when
// the launch itself failed; the reaper owns all accounting).
type inflight struct {
	call *core.Call
	t0   time.Time
}

// reap awaits launched calls in issue order and accounts them. It only
// ever blocks on futures; replies from one request manager arrive in issue
// order, so awaiting in order observes each completion as it happens.
func (cl *client) reap(ctx context.Context, spec *workload, calls <-chan inflight) {
	for f := range calls {
		ok := false
		if f.call != nil {
			replies, err := f.call.Await(ctx)
			ok = checkWrite(replies, err, spec.mode)
		}
		t1 := time.Now()
		if ok {
			cl.writes.Add(1)
		}
		cl.rec.done(f.t0, t1, false, ok)
	}
}

// launch issues one asynchronous put and hands it to the reaper; t0 is the
// instant its latency is charged from.
func (cl *client) launch(ctx context.Context, spec *workload, p plan, t0 time.Time, calls chan<- inflight) bool {
	begin := time.Now()
	call, err := cl.b.InvokeAsync(ctx, "put", cl.nextWrite(), spec.opts...)
	if err != nil {
		call = nil
	} else if p.traced {
		cl.rec.spans = append(cl.rec.spans, int64(time.Since(begin)))
	}
	select {
	case calls <- inflight{call: call, t0: t0}:
		return true
	case <-ctx.Done():
		return false
	}
}

// withReaper runs issue with a reaper goroutine behind it and returns once
// every launched call has been accounted.
func (cl *client) withReaper(ctx context.Context, spec *workload, issue func(calls chan<- inflight)) {
	// The binding's window (bindWindow) bounds the calls in flight; the
	// channel only has to hold them without ever blocking the generator.
	calls := make(chan inflight, 2*bindWindow)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl.reap(ctx, spec, calls)
	}()
	issue(calls)
	close(calls)
	wg.Wait()
}

// pipeline keeps the binding's window full: InvokeAsync blocks when
// bindWindow calls are outstanding, which is the generator's only brake.
func (cl *client) pipeline(ctx context.Context, spec *workload, p plan) {
	end := p.end()
	cl.withReaper(ctx, spec, func(calls chan<- inflight) {
		for t := time.Now(); t.Before(end); t = time.Now() {
			if !cl.launch(ctx, spec, p, t, calls) {
				return
			}
		}
	})
}

// paceClock is the paced generator's view of time (faked in tests).
type paceClock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

// pacedLoop issues one call per slot of length period from first up to end,
// each at its slot's start plus jitter() (within the slot). A call is handed
// its due time, not the time the loop got round to it: when the generator
// (or the system pushing back on it) stalls, the calls that were due during
// the stall are issued late, back to back, and each is charged from when it
// should have left.
func pacedLoop(clk paceClock, first time.Time, period time.Duration, end time.Time, jitter func() time.Duration, issue func(due time.Time) bool) {
	for slot := first; slot.Before(end); slot = slot.Add(period) {
		due := slot.Add(jitter())
		if clk.Now().Before(due) {
			clk.SleepUntil(due)
		}
		if !issue(due) {
			return
		}
	}
}

// wallClock sleeps with nanosleep(2): the Go runtime's timers wake an idle
// process about a millisecond late on Linux, which at a 2 ms period would
// time the generator rather than the system; a thread blocked in nanosleep
// wakes within the kernel's timer slack (~0.1 ms) and burns no CPU waiting.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// paced is the open-loop generator: spec.rate calls per second over all
// clients, one call per client per slot, each timed from its due time. The
// call's place inside its slot is drawn from the seed: a strictly periodic
// schedule keeps one fixed phase against the groups' 5 ms tick for a whole
// run, and which phase it drew moved p50 and CPU per call by a fifth from
// run to run; a jittered one samples every phase in every run.
func (cl *client) paced(ctx context.Context, spec *workload, p plan, nClients int, launched time.Time) {
	period := time.Second / time.Duration(spec.rate) * time.Duration(nClients)
	jitter := func() time.Duration {
		cl.rng ^= cl.rng << 13
		cl.rng ^= cl.rng >> 7
		cl.rng ^= cl.rng << 17
		return time.Duration(cl.rng % uint64(period))
	}
	cl.withReaper(ctx, spec, func(calls chan<- inflight) {
		pacedLoop(wallClock{}, launched, period, p.end(), jitter, func(due time.Time) bool {
			if !due.Before(p.start) {
				cl.rec.late = append(cl.rec.late, int64(time.Since(due)))
			}
			return cl.launch(ctx, spec, p, due, calls)
		})
	})
}
