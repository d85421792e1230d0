// Package tcpnet is a real-network implementation of transport.Endpoint
// over TCP, for deploying the NewTop service outside the simulator — the
// role omniORB2's TCP layer plays as the paper's deployment substrate.
//
// The transport is non-blocking and pipelined. Send copies the frame,
// behind its length header, onto the end of a bounded per-peer queue (one
// growing buffer) and returns immediately: a full queue drops the frame
// (best-effort datagram semantics, exactly like a lost packet on a
// congested path) and never stalls the caller — the gcs event loop and the
// ORB never wait on a dial or on a slow peer's TCP backpressure. A
// dedicated writer goroutine per peer swaps that buffer for its spare and
// writes every pending frame with one write, and owns connecting and
// re-connecting in the background with capped exponential backoff, so a
// dead peer can never block a live multicast. The single writer per
// connection also serializes frames by construction: concurrent Senders
// cannot interleave their frames and corrupt the stream.
//
// The read side buffers each connection with a pooled bufio.Reader and
// carves inbound frame payloads out of large arena chunks, so a busy
// connection pays roughly one allocation per readChunk bytes of traffic
// instead of one per frame. Chunks are deliberately left to the garbage
// collector once a frame has been carved from them: receivers decode with
// wire.Reader.BlobRef and may retain slices of a frame indefinitely (the
// zero-copy contract from the hot-path overhaul), so a recycled chunk
// would corrupt live messages. The bufio.Readers, whose bytes never
// escape, are the sync.Pool-recycled half of the scheme.
//
// Outbound connections open with a handshake frame naming the sending
// process and (when it has one that peers can actually dial) its
// advertised listen address, so the peer can dial back without prior
// configuration.
package tcpnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/obs/flight"
	"newtop/internal/transport"
)

// maxFrame bounds a single message to keep a malformed peer from forcing
// huge allocations.
const maxFrame = 16 << 20

// Connection timing and read buffering are fixed.
const (
	// dialTimeout bounds one background connect attempt.
	dialTimeout = 3 * time.Second
	// redialMin and redialMax bound the exponential backoff between
	// connect attempts to an unreachable peer.
	redialMin, redialMax = 50 * time.Millisecond, 3 * time.Second
	// writeTimeout bounds one coalesced write; a peer that stalls its
	// receive window longer than this loses the connection (the writer
	// redials in the background).
	writeTimeout = 10 * time.Second
	// readChunk is the arena chunk size inbound frame payloads are carved
	// from.
	readChunk = 64 << 10
	// maxKeptBuf bounds the outbound buffer a writer keeps for reuse: one
	// that a burst or a state-transfer snapshot grew past it is left to the
	// garbage collector once written, so a rare giant frame does not pin
	// memory for the connection's lifetime.
	maxKeptBuf = 1 << 20
)

// Config tunes an endpoint. The zero value gives sane defaults.
type Config struct {
	// AdvertiseAddr is the listen address handed to peers in the
	// handshake so they can dial back. When empty, the endpoint
	// advertises its literal listener address only if that address has a
	// dialable host: a wildcard listener (":7001", "0.0.0.0:7001",
	// "[::]:7001") advertises nothing rather than an address the peer
	// cannot use.
	AdvertiseAddr string
	// QueueLen bounds each peer's outbound queue in frames; a Send to a
	// peer whose queue is full drops the frame. Default 1024.
	QueueLen int
	// FlushDelay is how long a writer that just woke up waits for more
	// frames to accumulate before flushing. Zero (the default) flushes
	// immediately: lowest latency, least coalescing. A small delay (tens
	// to hundreds of microseconds) trades a bounded latency hit for fewer,
	// fuller writes — worthwhile when syscall overhead, not propagation,
	// bounds throughput.
	FlushDelay time.Duration
	// Obs is the observability domain the endpoint's instruments
	// register in; nil uses the process-wide default.
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	if c.Obs == nil {
		c.Obs = obs.Default()
	}
	return c
}

// Endpoint is a TCP-backed transport endpoint.
type Endpoint struct {
	id  ids.ProcessID
	cfg Config
	lis net.Listener
	adv string

	fifo *transport.FIFO
	met  *metrics
	// Flight-recorder identity (the obs domain's journal); transport
	// events attribute peers by interned proc ID in the Sender field.
	fr     *flight.Recorder
	frProc uint16

	// readers recycles per-connection bufio buffers across connections
	// (their bytes never escape the read loop, unlike arena chunks).
	readers sync.Pool

	mu     sync.Mutex
	peers  map[ids.ProcessID]string   // address book
	pipes  map[ids.ProcessID]*pipe    // outbound writer pipelines
	inConn map[ids.ProcessID]net.Conn // handshaken inbound connections
	anon   map[net.Conn]struct{}      // accepted, handshake pending
	closed bool

	wg sync.WaitGroup
}

var (
	_ transport.Endpoint      = (*Endpoint)(nil)
	_ transport.BatchReceiver = (*Endpoint)(nil)
)

// Listen starts an endpoint for process id on addr (e.g. ":7001" or
// "127.0.0.1:0") with default configuration. Peers must be registered
// with AddPeer (or learned from an inbound handshake) before they can be
// sent to.
func Listen(id ids.ProcessID, addr string) (*Endpoint, error) {
	return ListenConfig(id, addr, Config{})
}

// ListenConfig is Listen with explicit tuning.
func ListenConfig(id ids.ProcessID, addr string, cfg Config) (*Endpoint, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet listen: %w", err)
	}
	cfg = cfg.withDefaults()
	e := &Endpoint{
		id:     id,
		cfg:    cfg,
		lis:    lis,
		adv:    cfg.AdvertiseAddr,
		fifo:   transport.NewFIFO(),
		met:    newMetrics(cfg.Obs, id),
		fr:     cfg.Obs.Flight,
		frProc: cfg.Obs.Flight.Proc(string(id)),
		peers:  make(map[ids.ProcessID]string),
		pipes:  make(map[ids.ProcessID]*pipe),
		inConn: make(map[ids.ProcessID]net.Conn),
		anon:   make(map[net.Conn]struct{}),
	}
	e.readers.New = func() any { return bufio.NewReaderSize(nil, readChunk) }
	if e.adv == "" {
		e.adv = defaultAdvertise(lis.Addr().String())
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// defaultAdvertise returns addr when it names a host a peer could dial,
// "" otherwise (wildcard and unspecified listeners are not dialable from
// a remote process).
func defaultAdvertise(addr string) string {
	host, _, err := net.SplitHostPort(addr)
	if err != nil || host == "" {
		return ""
	}
	if ip := net.ParseIP(host); ip != nil && ip.IsUnspecified() {
		return ""
	}
	return addr
}

// Addr returns the listener's bound address.
func (e *Endpoint) Addr() string { return e.lis.Addr().String() }

// AddPeer registers (or updates) the address of a peer process.
func (e *Endpoint) AddPeer(id ids.ProcessID, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.peers[id] = addr
}

// ID implements transport.Endpoint.
func (e *Endpoint) ID() ids.ProcessID { return e.id }

// Inbound implements transport.Endpoint.
func (e *Endpoint) Inbound() <-chan transport.Inbound { return e.fifo.Out() }

// Recv implements transport.BatchReceiver.
func (e *Endpoint) Recv(dst []transport.Inbound) (int, bool) { return e.fifo.PopBatch(dst) }

// Send implements transport.Endpoint. It copies the frame onto the peer's
// outbound queue and returns immediately; it never dials and never writes.
// A full queue or an unreachable peer drops the frame, like a lost
// datagram.
func (e *Endpoint) Send(to ids.ProcessID, payload []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return transport.ErrClosed
	}
	p := e.pipes[to]
	if p == nil {
		if _, ok := e.peers[to]; !ok {
			e.mu.Unlock()
			return fmt.Errorf("%w: %s", transport.ErrUnknownPeer, to)
		}
		p = newPipe(e, to)
		e.pipes[to] = p
		e.wg.Add(1)
		go p.run()
	}
	e.mu.Unlock()

	p.enqueue(payload)
	return nil
}

// Stats is a point-in-time reading of the endpoint's transport counters.
type Stats struct {
	FramesSent, BytesSent, Flushes uint64
	FramesRecv, BytesRecv          uint64
	Enqueued, DropsFull, DropsConn uint64
	Connects, Redials, DialFails   uint64
	Accepted                       uint64
	QueueHighwater                 int64
}

// Stats returns the endpoint's counters.
func (e *Endpoint) Stats() Stats {
	m := e.met
	return Stats{
		FramesSent:     m.framesSent.Value(),
		BytesSent:      m.bytesSent.Value(),
		Flushes:        m.flushes.Value(),
		FramesRecv:     m.framesRecv.Value(),
		BytesRecv:      m.bytesRecv.Value(),
		Enqueued:       m.enqueued.Value(),
		DropsFull:      m.dropsFull.Value(),
		DropsConn:      m.dropsConn.Value(),
		Connects:       m.connects.Value(),
		Redials:        m.redials.Value(),
		DialFails:      m.dialFails.Value(),
		Accepted:       m.accepted.Value(),
		QueueHighwater: m.queueHigh.Value(),
	}
}

// Close implements transport.Endpoint.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return nil
	}
	e.closed = true
	pipes := make([]*pipe, 0, len(e.pipes))
	for _, p := range e.pipes {
		pipes = append(pipes, p)
	}
	conns := make([]net.Conn, 0, len(e.inConn)+len(e.anon))
	for _, c := range e.inConn {
		conns = append(conns, c)
	}
	for c := range e.anon {
		conns = append(conns, c)
	}
	e.mu.Unlock()

	err := e.lis.Close()
	for _, p := range pipes {
		p.shutdown()
	}
	for _, c := range conns {
		c.Close()
	}
	e.wg.Wait()
	e.fifo.Close()
	return err
}

// --- outbound: per-peer writer pipeline ---

// pipe is one peer's outbound pipeline: a bounded frame queue drained by
// a single writer goroutine that owns the connection.
type pipe struct {
	e  *Endpoint
	to ids.ProcessID

	ctx    context.Context // canceled by shutdown; stops dial, backoff and the run loop
	cancel context.CancelFunc

	mu     sync.Mutex
	buf    []byte // the queued frames, each a 4-byte length header and its payload, wire-ready
	count  int    // frames in buf; QueueLen bounds it
	closed bool

	wake chan struct{}

	connMu sync.Mutex
	conn   net.Conn // owned by run(); closed by shutdown to interrupt a blocked write

	attempts uint64 // dial attempts, run()-local bookkeeping

	frPeer int16 // the peer's interned flight-recorder proc ID
}

func newPipe(e *Endpoint, to ids.ProcessID) *pipe {
	ctx, cancel := context.WithCancel(context.Background())
	return &pipe{
		e:      e,
		to:     to,
		ctx:    ctx,
		cancel: cancel,
		wake:   make(chan struct{}, 1),
		frPeer: int16(e.fr.Proc(string(to))),
	}
}

// frRecord journals one transport event against a peer.
func (e *Endpoint) frRecord(t flight.Type, peer int16, a, b uint64) {
	e.fr.Record(flight.Event{Type: t, Proc: e.frProc, Sender: peer, A: a, B: b})
}

// enqueue appends one frame, its header and a copy of payload; it never
// blocks. A full queue drops the frame — the bounded queue is what keeps a
// slow or dead peer from ever propagating backpressure into the caller.
func (p *pipe) enqueue(payload []byte) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	if p.count == p.e.cfg.QueueLen {
		p.mu.Unlock()
		p.e.met.dropsFull.Inc()
		p.e.frRecord(flight.EvTCPDropFull, p.frPeer, 0, 0)
		return
	}
	p.buf = binary.BigEndian.AppendUint32(p.buf, uint32(len(payload)))
	p.buf = append(p.buf, payload...)
	p.count++
	depth := p.count
	p.mu.Unlock()

	p.e.met.enqueued.Inc()
	p.e.met.queueHigh.SetMax(int64(depth))
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// take swaps every queued frame out for spare, emptied, which the queue
// fills next; it returns the frames and how many there are.
func (p *pipe) take(spare []byte) ([]byte, int) {
	p.mu.Lock()
	frames, n := p.buf, p.count
	p.buf, p.count = spare[:0], 0
	p.mu.Unlock()
	return frames, n
}

func (p *pipe) pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count
}

// shutdown stops the pipeline: cancels dial/backoff waits and closes the
// live connection out from under a blocked write.
func (p *pipe) shutdown() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()

	p.cancel()
	p.connMu.Lock()
	if p.conn != nil {
		p.conn.Close()
	}
	p.connMu.Unlock()
}

// run is the writer goroutine: wait for work, ensure a connection
// (dialing in the background with capped exponential backoff), and flush
// every pending frame with one write.
func (p *pipe) run() {
	defer p.e.wg.Done()
	defer func() {
		p.connMu.Lock()
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.connMu.Unlock()
	}()

	backoff := redialMin
	// spare is the buffer the queue fills while the writer writes the
	// other; the two swap at every flush, so the steady state allocates
	// nothing.
	var spare []byte

	var delay *time.Timer
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-p.wake:
		}
		if d := p.e.cfg.FlushDelay; d > 0 {
			// Let more frames land in the queue before the first flush of
			// this burst; one fuller writev beats several sparse ones.
			if delay == nil {
				delay = time.NewTimer(d)
			} else {
				delay.Reset(d)
			}
			select {
			case <-p.ctx.Done():
				delay.Stop()
				return
			case <-delay.C:
			}
		}
		for p.pending() > 0 {
			conn := p.ensure(&backoff)
			if conn == nil {
				return // shut down while dialing
			}
			frames, n := p.take(spare)
			if n == 0 {
				spare = frames
				break
			}
			total := len(frames)
			_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			_, err := conn.Write(frames)
			if cap(frames) > maxKeptBuf {
				frames = nil
			}
			spare = frames
			if err != nil {
				// The stream is dead (or the peer stalled past the write
				// deadline): these frames are lost, like datagrams on a
				// failed path. Drop the connection; ensure() redials in the
				// background before the next flush.
				p.dropConn(conn)
				p.e.met.dropsConn.Add(uint64(n))
				p.e.frRecord(flight.EvTCPDropConn, p.frPeer, uint64(n), 0)
				continue
			}
			p.e.met.flushes.Inc()
			p.e.met.framesSent.Add(uint64(n))
			p.e.met.bytesSent.Add(uint64(total))
			p.e.frRecord(flight.EvTCPFlush, p.frPeer, uint64(n), uint64(total))
		}
	}
}

// ensure returns a live connection, dialing (and backing off) as long as
// it takes. It returns nil only when the pipe is shut down.
func (p *pipe) ensure(backoff *time.Duration) net.Conn {
	p.connMu.Lock()
	conn := p.conn
	p.connMu.Unlock()
	if conn != nil {
		return conn
	}
	for {
		if p.ctx.Err() != nil {
			return nil
		}
		p.attempts++
		if p.attempts > 1 {
			p.e.met.redials.Inc()
		}
		conn, err := p.dialOnce()
		if err == nil {
			p.connMu.Lock()
			if p.closed {
				p.connMu.Unlock()
				conn.Close()
				return nil
			}
			p.conn = conn
			p.connMu.Unlock()
			*backoff = redialMin
			p.e.met.connects.Inc()
			p.e.frRecord(flight.EvTCPConnect, p.frPeer, p.attempts, 1)
			return conn
		}
		p.e.met.dialFails.Inc()

		select {
		case <-p.ctx.Done():
			return nil
		case <-time.After(*backoff):
		}
		*backoff *= 2
		if *backoff > redialMax {
			*backoff = redialMax
		}
	}
}

// dialOnce makes one connect attempt and performs the handshake.
func (p *pipe) dialOnce() (net.Conn, error) {
	p.e.mu.Lock()
	addr := p.e.peers[p.to]
	p.e.mu.Unlock()
	if addr == "" {
		return nil, fmt.Errorf("tcpnet: no address for %s", p.to)
	}
	ctx, cancel := context.WithTimeout(p.ctx, dialTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	setNoDelay(conn)
	// Handshake: the first frame on an outbound connection carries our
	// identity and advertised listen address ("id\x00addr"), so the peer
	// can dial us back without prior configuration.
	hello := []byte(string(p.e.id) + "\x00" + p.e.adv)
	frame := make([]byte, 0, 4+len(hello))
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(hello)))
	frame = append(frame, hello...)
	_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := conn.Write(frame); err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetWriteDeadline(time.Time{})
	return conn, nil
}

// dropConn discards the pipe's connection after a write error.
func (p *pipe) dropConn(conn net.Conn) {
	conn.Close()
	p.connMu.Lock()
	if p.conn == conn {
		p.conn = nil
	}
	p.connMu.Unlock()
}

// setNoDelay disables Nagle's algorithm: frames are already coalesced by
// the writer pipeline, so delaying small segments only adds latency.
func setNoDelay(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
}

// --- inbound: accept and pooled read path ---

func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.lis.Accept()
		if err != nil {
			return
		}
		setNoDelay(conn)
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.anon[conn] = struct{}{}
		e.mu.Unlock()
		e.met.accepted.Inc()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

func (e *Endpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()

	br := e.readers.Get().(*bufio.Reader)
	br.Reset(conn)
	// The bufio buffer never escapes this loop (payloads are copied into
	// arena chunks), so it is safe to recycle across connections.
	defer e.readers.Put(br)

	from, ok := e.handshake(conn, br)
	if !ok {
		conn.Close()
		e.mu.Lock()
		delete(e.anon, conn)
		e.mu.Unlock()
		return
	}
	defer func() {
		conn.Close()
		e.mu.Lock()
		if e.inConn[from] == conn {
			delete(e.inConn, from)
		}
		e.mu.Unlock()
	}()

	ar := transport.Arena{Size: readChunk}
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxFrame {
			return // corrupt or hostile stream: drop the connection
		}
		payload := ar.Carve(int(n))
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		e.met.framesRecv.Inc()
		e.met.bytesRecv.Add(uint64(4 + n))
		e.fifo.Push(transport.Inbound{From: from, Payload: payload})
	}
}

// handshake consumes the hello frame, registers the connection under the
// peer's process ID (closing any stale connection the same process left
// behind before redialing), and learns the peer's return address.
func (e *Endpoint) handshake(conn net.Conn, br *bufio.Reader) (ids.ProcessID, bool) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return "", false
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return "", false
	}
	hello := make([]byte, n)
	if _, err := io.ReadFull(br, hello); err != nil {
		return "", false
	}
	name, addr, _ := strings.Cut(string(hello), "\x00")
	from := ids.ProcessID(name)
	if from == "" {
		return "", false
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return "", false
	}
	delete(e.anon, conn)
	// A process that redials (crash, dropped path) leaves its previous
	// connection half-open on our side until a read fails, which can take
	// arbitrarily long. The fresh handshake supersedes it: close the
	// stale connection now so its read loop exits immediately.
	if old := e.inConn[from]; old != nil && old != conn {
		old.Close()
	}
	e.inConn[from] = conn
	if addr != "" {
		// Learn the peer's return address from the handshake.
		if _, known := e.peers[from]; !known {
			e.peers[from] = addr
		}
	}
	e.mu.Unlock()
	e.frRecord(flight.EvTCPConnect, int16(e.fr.Proc(string(from))), 0, 0)
	return from, true
}

// --- instruments ---

// metrics holds the endpoint's pre-resolved obs instruments; the hot
// paths touch only atomics.
type metrics struct {
	enqueued, dropsFull, dropsConn  *obs.Counter
	flushes, framesSent, bytesSent  *obs.Counter
	framesRecv, bytesRecv, accepted *obs.Counter
	connects, redials, dialFails    *obs.Counter
	queueHigh                       *obs.Gauge
}

func newMetrics(o *obs.Obs, id ids.ProcessID) *metrics {
	pfx := "tcpnet_" + obs.Sanitize(string(id)) + "_"
	return &metrics{
		enqueued:   o.Reg.Counter(pfx + "enqueued"),
		dropsFull:  o.Reg.Counter(pfx + "send_drops_full"),
		dropsConn:  o.Reg.Counter(pfx + "send_drops_conn"),
		flushes:    o.Reg.Counter(pfx + "flushes"),
		framesSent: o.Reg.Counter(pfx + "frames_sent"),
		bytesSent:  o.Reg.Counter(pfx + "bytes_sent"),
		framesRecv: o.Reg.Counter(pfx + "frames_recv"),
		bytesRecv:  o.Reg.Counter(pfx + "bytes_recv"),
		accepted:   o.Reg.Counter(pfx + "conns_accepted"),
		connects:   o.Reg.Counter(pfx + "connects"),
		redials:    o.Reg.Counter(pfx + "redials"),
		dialFails:  o.Reg.Counter(pfx + "dial_fails"),
		queueHigh:  o.Reg.Gauge(pfx + "sendq_highwater"),
	}
}
