package livenode

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"syscall"
	"time"

	"bsub/internal/engine"
	"bsub/internal/tcbf"
	"bsub/internal/workload"
	"bsub/internal/xrand"
)

// Delivery is a message that reached this node's subscriptions.
type Delivery struct {
	Message workload.Message
	Payload []byte
	// Direct reports whether the message arrived straight from its
	// producer (true) or through a broker (false).
	Direct bool
}

// Defaults for the session-engine knobs; selected when the corresponding
// Config field is zero.
const (
	// DefaultMaxSessions bounds concurrent contact sessions per node.
	DefaultMaxSessions = 8
	// DefaultMeetAttempts bounds Meet's retries on BUSY or dial failure.
	DefaultMeetAttempts = 3
	// DefaultMeetBackoff is the pause before Meet's first retry; it
	// doubles after every failed attempt.
	DefaultMeetBackoff = 25 * time.Millisecond
	// DefaultSessionTimeout bounds each single frame read or write in a
	// contact session; HUNET contacts are short, and a hung peer must
	// not pin a session slot forever.
	DefaultSessionTimeout = 10 * time.Second
	// DefaultDialTimeout bounds Meet's TCP connect.
	DefaultDialTimeout = 5 * time.Second
)

// Config parameterizes a live node. The protocol parameters are the
// engine's (the paper's Section V/VII values via engine.DefaultConfig).
type Config struct {
	// ID must be unique across the mesh.
	ID uint32
	// Protocol holds the B-SUB parameters.
	Protocol engine.Config
	// TTL is the message lifetime.
	TTL time.Duration
	// Clock returns the current time as an offset on a basis shared by
	// all nodes in the mesh (defaults to Unix wall time). Injected for
	// tests.
	Clock func() time.Duration
	// OnDeliver, when set, receives each delivered message exactly once.
	// It is called from session goroutines with no node locks held; a
	// slow implementation stalls only its own session.
	OnDeliver func(Delivery)
	// MaxSessions bounds how many contact sessions (inbound plus
	// outgoing) run concurrently; further inbound contacts are answered
	// with a BUSY frame and further Meet calls return ErrBusy. Zero or
	// negative selects DefaultMaxSessions.
	MaxSessions int
	// MeetAttempts bounds how many times one Meet call tries the
	// contact when the dial fails or either side is at capacity. Zero
	// or negative selects DefaultMeetAttempts.
	MeetAttempts int
	// MeetBackoff is the pause before Meet's first retry, doubled after
	// each failed attempt. Zero or negative selects DefaultMeetBackoff.
	MeetBackoff time.Duration
	// SessionTimeout bounds each single frame read or write inside a
	// contact session. The deadline is re-armed before every frame, so a
	// healthy transfer may run arbitrarily long while a stalled peer is
	// detected within one timeout. Zero or negative selects
	// DefaultSessionTimeout.
	SessionTimeout time.Duration
	// DialTimeout bounds Meet's TCP connect. Zero or negative selects
	// DefaultDialTimeout.
	DialTimeout time.Duration
	// OnSession, when set, receives one SessionStats record per contact
	// attempt — completed, failed mid-protocol, refused at capacity, or
	// never connected. Called from session goroutines with no node
	// locks held.
	OnSession func(SessionStats)
	// OnStored, when set, is called once for each relayed copy newly
	// stored in the carried store — the hook a mesh layer uses to flood a
	// fresh copy onward to its broker peers. Called from session
	// goroutines with no node locks held; it must not block for long.
	OnStored func(msg workload.Message)
	// OnPeerGenuine, when set, receives each peer's wire-encoded genuine
	// (interest) filter as this node absorbs it during a contact
	// session's genuine phase — the hook a broker-tier mesh layer uses to
	// aggregate downstream subscriber interests (see internal/mesh). The
	// bytes are the peer's partitioned-TCBF encoding; the callee owns them.
	// Called from session goroutines with no node locks held.
	OnPeerGenuine func(peer uint32, encoded []byte)
	// GossipHandler, when set, answers inbound gossip frames: it receives
	// the dialer's payload and returns the reply payload. The byte
	// contents are opaque to this package. Called from connection
	// goroutines with no node locks held; it must be in-memory fast, as
	// gossip answers bypass the MaxSessions slots. Nil drops inbound
	// gossip.
	GossipHandler func(payload []byte) []byte
	// Dial overrides the transport dial used by Meet and Gossip; tests
	// inject faultnet fabrics to stand up partitions. Nil selects
	// net.DialTimeout("tcp", ...).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
}

// Node is one live B-SUB device. Create with Listen, connect contacts with
// Meet, publish with Publish, and stop with Close.
//
// All protocol state lives in an engine.Node; the live node is a wire
// adapter that frames the engine's session steps over TCP. The engine is
// not safe for concurrent use, so every call into it holds mu — but mu is
// never held across network I/O, so sessions with distinct peers still
// run in parallel and a stalled peer never blocks the node.
type Node struct {
	cfg       Config
	filterCfg tcbf.Config

	listener  net.Listener
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error

	// sessions is the MaxSessions semaphore; every running session (in
	// either direction) holds one slot.
	sessions chan struct{}

	// mu guards the engine node, its session arenas and the publish
	// sequence. It never nests with statsMu, but the ranks pin the order
	// if that ever changes: mu first, statsMu innermost.
	//bsub:lockrank 10
	mu      sync.Mutex
	eng     *engine.Node
	arenas  engine.SessionCache
	nextSeq uint32

	// statsMu guards the session counters (see stats.go).
	//bsub:lockrank 20
	statsMu  sync.Mutex
	counters Counters
}

// Listen starts a node serving contact sessions on addr (e.g.
// "127.0.0.1:0").
func Listen(addr string, cfg Config) (*Node, error) {
	if cfg.TTL <= 0 {
		return nil, fmt.Errorf("livenode: TTL must be positive, got %v", cfg.TTL)
	}
	params, err := engine.NewParams(cfg.Protocol, cfg.TTL)
	if err != nil {
		return nil, fmt.Errorf("livenode: %w", err)
	}
	eng := params.NewNode(int(cfg.ID))
	if cfg.Clock == nil {
		epoch := time.Unix(0, 0)
		cfg.Clock = func() time.Duration { return time.Since(epoch) }
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.MeetAttempts <= 0 {
		cfg.MeetAttempts = DefaultMeetAttempts
	}
	if cfg.MeetBackoff <= 0 {
		cfg.MeetBackoff = DefaultMeetBackoff
	}
	if cfg.SessionTimeout <= 0 {
		cfg.SessionTimeout = DefaultSessionTimeout
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("livenode: listen: %w", err)
	}
	n := &Node{
		cfg:       cfg,
		filterCfg: cfg.Protocol.FilterConfig(),
		listener:  ln,
		closed:    make(chan struct{}),
		sessions:  make(chan struct{}, cfg.MaxSessions),
		eng:       eng,
	}
	n.wg.Add(1)
	go n.serve()
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.listener.Addr().String() }

// ID returns the node's mesh-unique identifier.
func (n *Node) ID() uint32 { return n.cfg.ID }

// Close stops the listener and waits for in-flight sessions. It is safe
// to call concurrently and repeatedly; every call waits for shutdown to
// finish and returns the listener's close error.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.closed)
		n.closeErr = n.listener.Close()
	})
	n.wg.Wait()
	return n.closeErr
}

// Subscribe adds interest keys. In B-SUB terms, they enter the node's
// genuine filter and will be pushed to brokers on future contacts.
func (n *Node) Subscribe(keys ...workload.Key) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.eng.Subscribe(keys...)
}

// Interests returns a copy of the node's subscriptions.
func (n *Node) Interests() []workload.Key {
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.Clone(n.eng.Interests())
}

// Publish stores a message for dissemination and returns its mesh-wide ID.
// keys[0] is the primary content key; extras follow (multi-key extension).
func (n *Node) Publish(payload []byte, keys ...workload.Key) (int, error) {
	if len(keys) == 0 {
		return 0, errors.New("livenode: publish requires at least one key")
	}
	if len(payload) > workload.MaxMessageBytes {
		return 0, fmt.Errorf("livenode: payload %d bytes exceeds the %d-byte cap",
			len(payload), workload.MaxMessageBytes)
	}
	now := n.cfg.Clock()
	n.mu.Lock()
	defer n.mu.Unlock()
	id := int(uint64(n.cfg.ID)<<32 | uint64(n.nextSeq))
	n.nextSeq++
	msg := workload.Message{
		ID:        id,
		Key:       keys[0],
		Origin:    int(n.cfg.ID),
		Size:      len(payload),
		CreatedAt: now,
	}
	if len(keys) > 1 {
		msg.Extra = append([]workload.Key(nil), keys[1:]...)
	}
	n.eng.AddProduced(msg, append([]byte(nil), payload...))
	return id, nil
}

// ForgetDeliveries drops the engine's record of direct deliveries made to
// peer. The mesh calls it when it declares a peer dead: a restarted
// incarnation of that peer has an empty delivered set, and without this the
// producer's stale sent-marker would block redelivery to it forever. If the
// peer was wrongly suspected, its dedup absorbs the repeat delivery.
func (n *Node) ForgetDeliveries(peer uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.eng.ClearSentTo(engine.NodeID(peer))
}

// IsBroker reports whether the node currently serves as a broker.
func (n *Node) IsBroker() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng.IsBroker()
}

// CarriedCount returns how many relayed copies the node holds.
func (n *Node) CarriedCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng.CarriedCount()
}

// CopyCensus returns how many replication copies of message id this node
// holds: the producer's remaining copy budget plus one if a relayed copy
// sits in the carried store. Summed across a mesh, the census must never
// exceed the protocol's CopyLimit — hand-offs conserve copies, dedup
// collapse and node death only destroy them.
func (n *Node) CopyCensus(id int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	copies := n.eng.ProducedCopies(id)
	if n.eng.HasCarried(id) {
		copies++
	}
	return copies
}

// serve accepts inbound contact sessions until Close. Persistent accept
// errors (EMFILE and friends) back off net/http-style instead of
// busy-spinning the loop at 100% CPU.
func (n *Node) serve() {
	defer n.wg.Done()
	var delay time.Duration
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
			}
			delay = nextAcceptDelay(delay)
			timer := time.NewTimer(delay)
			select {
			case <-n.closed:
				timer.Stop()
				return
			case <-timer.C:
			}
			continue
		}
		delay = 0
		n.wg.Add(1)
		go n.handleInbound(conn)
	}
}

// nextAcceptDelay doubles the accept-retry pause from 5ms up to 1s.
func nextAcceptDelay(prev time.Duration) time.Duration {
	if prev == 0 {
		return 5 * time.Millisecond
	}
	if prev >= time.Second/2 {
		return time.Second
	}
	return prev * 2
}

// handleInbound routes one accepted connection. The first frame is read
// before a session slot is taken, so gossip datagrams — cheap, bounded,
// membership-critical — keep flowing while every contact slot is busy. At
// capacity the node answers a contact with a single BUSY frame — an
// explicit, retryable refusal — instead of slamming the connection.
func (n *Node) handleInbound(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(n.cfg.SessionTimeout))
	typ, body, err := readFrame(conn)
	if err != nil {
		// The peer connected but never produced a whole first frame; no
		// slot was held and no protocol ran.
		n.sessionEnded(SessionStats{
			Phase:   PhaseConnect,
			Outcome: outcomeForError(err),
			Err:     err,
		}, false)
		return
	}
	if typ == frameGossip {
		n.answerGossip(conn, body)
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	select {
	case n.sessions <- struct{}{}:
	default:
		// Count the refusal before the dialer can see it: once the BUSY
		// frame is out, the dialer may read this node's counters.
		n.sessionEnded(SessionStats{
			Phase:   PhaseConnect,
			Outcome: OutcomeRefusedBusy,
			Err:     ErrBusy,
		}, false)
		_ = writeFrame(conn, frameBusy, nil)
		// Drain the dialer's next bytes before closing: closing with
		// unread inbound data resets the connection, which can destroy
		// the BUSY frame before the peer reads it.
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		_, _ = io.Copy(io.Discard, conn)
		return
	}
	defer func() { <-n.sessions }()
	_ = n.runContactPre(conn, false, typ, body)
}

// answerGossip serves one inbound gossip exchange: hand the payload to
// the mesh layer's handler, write its reply, done. No session slot, no
// engine state, no node locks.
func (n *Node) answerGossip(conn net.Conn, body []byte) {
	h := n.cfg.GossipHandler
	if h == nil {
		return
	}
	reply := h(body)
	n.gossipAnswered()
	_ = conn.SetWriteDeadline(time.Now().Add(n.cfg.SessionTimeout))
	_ = writeFrame(conn, frameGossip, reply)
}

// Gossip dials addr, exchanges one membership datagram, and returns the
// peer's reply payload. Gossip rides outside contact sessions: neither
// side spends a MaxSessions slot, so heartbeats stay live while contacts
// saturate the node. The payload bytes are opaque to this package.
func (n *Node) Gossip(addr string, payload []byte) ([]byte, error) {
	conn, err := n.cfg.Dial(addr, n.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("livenode: gossip dial %s: %w", addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(n.cfg.SessionTimeout))
	if err := writeFrame(conn, frameGossip, payload); err != nil {
		return nil, err
	}
	reply, err := expectFrame(conn, frameGossip)
	if err != nil {
		return nil, err
	}
	n.gossipSent()
	return reply, nil
}

// maxMeetBackoff caps Meet's exponential retry backoff; without a cap a
// generous MeetAttempts turns the doubling into hours-long sleeps.
const maxMeetBackoff = time.Second

// ErrBusy is returned by Meet when this node is already running
// MaxSessions contact sessions; the caller may retry, as a device whose
// radio is occupied.
var ErrBusy = errors.New("livenode: node at session capacity")

// ErrPeerBusy is returned by Meet when the remote node answered BUSY
// instead of joining the session; the caller may retry.
var ErrPeerBusy = errors.New("livenode: peer at session capacity")

// Meet dials a peer and runs one contact session, mirroring two devices
// coming into Bluetooth range. Transient failures — a failed dial, this
// node at capacity, or the peer answering BUSY — are retried up to
// Config.MeetAttempts times under capped, jittered exponential backoff
// (each retry sleeps a uniform draw from [ceiling/2, ceiling), the
// ceiling doubling up to maxMeetBackoff); the last error is returned if
// every attempt fails. Protocol errors mid-session are not retried.
func (n *Node) Meet(addr string) error {
	backoff := n.cfg.MeetBackoff
	var err error
	for attempt := 0; attempt < n.cfg.MeetAttempts; attempt++ {
		if attempt > 0 {
			n.meetRetried()
			timer := time.NewTimer(xrand.JitteredBackoff(backoff, rand.Float64()))
			select {
			case <-n.closed:
				timer.Stop()
				return err
			case <-timer.C:
			}
			if backoff < maxMeetBackoff {
				backoff *= 2
			}
		}
		var retry bool
		retry, err = n.meetOnce(addr)
		if err == nil || !retry {
			return err
		}
	}
	return err
}

// meetOnce makes a single contact attempt. The session slot is reserved
// with a non-blocking acquire and no node lock is held across the dial,
// so a slow or failing dial never starves inbound contacts.
func (n *Node) meetOnce(addr string) (retry bool, err error) {
	select {
	case n.sessions <- struct{}{}:
	default:
		n.sessionEnded(SessionStats{
			Initiator: true,
			Phase:     PhaseConnect,
			Outcome:   OutcomeRefusedBusy,
			Err:       ErrBusy,
		}, false)
		return true, ErrBusy
	}
	defer func() { <-n.sessions }()
	conn, err := n.cfg.Dial(addr, n.cfg.DialTimeout)
	if err != nil {
		err = fmt.Errorf("livenode: dial %s: %w", addr, err)
		n.sessionEnded(SessionStats{
			Initiator: true,
			Phase:     PhaseConnect,
			Outcome:   OutcomeDialError,
			Err:       err,
		}, false)
		return true, err
	}
	defer conn.Close()
	err = n.runContact(conn, true)
	return errors.Is(err, ErrPeerBusy), err
}

// runContact executes one slot-holding session and accounts its stats. A
// failed session aborts its engine session, refunding any message copy
// that was claimed but never ACKed.
func (n *Node) runContact(conn io.ReadWriter, initiator bool) error {
	return n.runContactPre(conn, initiator, 0, nil)
}

// runContactPre is runContact with the session's first inbound frame
// already read (handleInbound peeks it to route gossip); preTyp zero
// means no frame was pre-read.
func (n *Node) runContactPre(conn io.ReadWriter, initiator bool, preTyp byte, preBody []byte) error {
	start := time.Now()
	n.sessionStarted()
	s := &session{n: n, conn: conn, initiator: initiator, timeout: n.cfg.SessionTimeout,
		preTyp: preTyp, preBody: preBody}
	if dl, ok := conn.(deadlineConn); ok {
		s.dl = dl
	}
	s.stats.Initiator = initiator
	err := s.run(n.cfg.Clock())
	if s.es != nil {
		n.mu.Lock()
		if err != nil {
			s.stats.MsgsRefunded += s.es.Abort()
		}
		// Recycle the engine session's scratch arena for the next contact;
		// on the error path the Abort above already refunded the claims.
		s.es.Release()
		n.mu.Unlock()
	}
	s.stats.Duration = time.Since(start)
	s.stats.Err = err
	switch {
	case err == nil:
		s.stats.Outcome = OutcomeCompleted
		s.stats.Phase = PhaseDone
	case errors.Is(err, ErrPeerBusy):
		s.stats.Outcome = OutcomePeerBusy
	default:
		s.stats.Outcome = outcomeForError(err)
	}
	n.sessionEnded(s.stats, true)
	return err
}

// outcomeForError classifies a mid-protocol failure for stats: a CRC
// mismatch is corruption, a deadline hit is a timeout, connection death
// is a severed contact, anything else a protocol error.
func outcomeForError(err error) SessionOutcome {
	switch {
	case errors.Is(err, ErrCorruptFrame):
		return OutcomeCorrupt
	case errors.Is(err, os.ErrDeadlineExceeded):
		return OutcomeTimedOut
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return OutcomeTimedOut
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return OutcomeSevered
	}
	return OutcomeError
}

// --- Engine access ----------------------------------------------------------

// purge drops expired messages through the engine's decay-driven expiry
// (TTL from creation, the same rule the stores' lazy expiry applies).
func (n *Node) purge(now time.Duration) {
	n.mu.Lock()
	n.eng.Purge(now)
	n.mu.Unlock()
}

// acceptCarried ingests a relayed copy through the engine and surfaces a
// first-time delivery. The OnDeliver and OnStored hooks run with no locks
// held so a slow consumer stalls only its own session.
func (n *Node) acceptCarried(msg workload.Message, payload []byte, now time.Duration) {
	n.mu.Lock()
	acc := n.eng.AcceptCarried(msg, payload, now)
	n.mu.Unlock()
	if acc.Delivered {
		n.deliver(msg, payload, false)
	}
	if acc.Stored && n.cfg.OnStored != nil {
		n.cfg.OnStored(msg)
	}
}

// deliver surfaces a message to the application. The engine has already
// deduplicated (a message is Delivered at most once, never to its own
// producer); this only fires the hook.
func (n *Node) deliver(msg workload.Message, payload []byte, direct bool) {
	if n.cfg.OnDeliver != nil {
		n.cfg.OnDeliver(Delivery{Message: msg, Payload: payload, Direct: direct})
	}
}
