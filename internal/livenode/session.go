package livenode

import (
	"fmt"
	"io"
	"time"

	"bsub/internal/engine"
	"bsub/internal/workload"
)

// session is one contact session in flight: the wire half of a contact.
// Every protocol decision — election, filter contents, forwarding choices,
// copy claims — comes from the engine.Session; this type only moves the
// engine's byte steps across the connection in frames.
//
// Sessions with distinct peers run concurrently: each holds one slot of
// the node's MaxSessions semaphore and takes n.mu only for engine calls,
// never across network I/O. The engine session pins the roles and relay
// filter at HELLO/election time, so the wire protocol stays in lockstep
// even if a concurrent session changes the node's role mid-flight.
type session struct {
	n         *Node
	conn      io.ReadWriter
	initiator bool
	stats     SessionStats

	// timeout bounds each single frame read or write; the deadline is
	// re-armed per frame (see readFrame/writeFrame), so a healthy long
	// transfer is never cut while a stalled peer is caught within one
	// timeout.
	timeout time.Duration
	// dl arms those per-frame deadlines when the transport supports them
	// (TCP connections and net.Pipe do); nil otherwise.
	dl deadlineConn

	// es is the engine session driving this contact. Its claims commit on
	// the peer's MSGACK and are refunded (aborted) when the contact dies.
	es *engine.Session

	// preTyp/preBody hold a first frame handleInbound already read off
	// the wire (to route gossip before taking a session slot); the first
	// readFrame consumes them. preTyp zero means none.
	preTyp  byte
	preBody []byte
}

// deadlineConn is the subset of net.Conn the session uses to arm
// per-frame I/O deadlines.
type deadlineConn interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// writeFrame sends one frame under a fresh write deadline and accounts it.
func (s *session) writeFrame(typ byte, body []byte) error {
	if s.dl != nil {
		_ = s.dl.SetWriteDeadline(time.Now().Add(s.timeout))
	}
	if err := writeFrame(s.conn, typ, body); err != nil {
		return err
	}
	s.stats.FramesOut++
	s.stats.BytesOut += int64(frameHeaderLen + len(body))
	return nil
}

// readFrame receives one frame under a fresh read deadline and accounts
// it. A frame pre-read by handleInbound is consumed first.
func (s *session) readFrame() (byte, []byte, error) {
	if s.preTyp != 0 {
		typ, body := s.preTyp, s.preBody
		s.preTyp, s.preBody = 0, nil
		s.stats.FramesIn++
		s.stats.BytesIn += int64(frameHeaderLen + len(body))
		return typ, body, nil
	}
	if s.dl != nil {
		_ = s.dl.SetReadDeadline(time.Now().Add(s.timeout))
	}
	typ, body, err := readFrame(s.conn)
	if err != nil {
		return typ, body, err
	}
	s.stats.FramesIn++
	s.stats.BytesIn += int64(frameHeaderLen + len(body))
	return typ, body, nil
}

// expectFrame reads a frame and verifies its type.
func (s *session) expectFrame(want byte) ([]byte, error) {
	typ, body, err := s.readFrame()
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("%w: got frame %d, want %d", ErrProtocol, typ, want)
	}
	return body, nil
}

// sendClaimed moves one claimed message copy across the wire. The claim
// commits only when the peer's ACK arrives; on any failure — torn write,
// severed link, missing ACK — the claim is aborted, refunding the copy to
// its store, and the error ends the session. The receiver dedups by
// message ID, so a copy resent after a lost ACK can never double-deliver.
func (s *session) sendClaimed(c *engine.Claim) error {
	body, err := encodeMessage(c.Msg(), c.Payload())
	if err == nil {
		err = s.writeFrame(frameMessage, body)
	}
	if err == nil {
		err = s.awaitAck(c.Msg().ID)
	}
	if err != nil {
		s.n.mu.Lock()
		c.Abort()
		s.n.mu.Unlock()
		s.stats.MsgsRefunded++
		return err
	}
	c.Commit()
	return nil
}

// awaitAck blocks for the frameMsgAck of message id.
func (s *session) awaitAck(id int) error {
	body, err := s.expectFrame(frameMsgAck)
	if err != nil {
		return err
	}
	got, err := decodeAck(body)
	if err != nil {
		return err
	}
	if got != id {
		return fmt.Errorf("%w: ack for message %d, want %d", ErrProtocol, got, id)
	}
	return nil
}

// writeAck acknowledges a received message after it has been processed
// (delivered and/or stored), committing the sender's claim.
func (s *session) writeAck(id int) error {
	return s.writeFrame(frameMsgAck, encodeAck(id))
}

// lockstep runs send/recv in initiator-first order.
func (s *session) lockstep(send, recv func() error) error {
	if s.initiator {
		if err := send(); err != nil {
			return err
		}
		return recv()
	}
	if err := recv(); err != nil {
		return err
	}
	return send()
}

// run executes one contact session over s.conn. Phases mirror Section V:
//
//  0. HELLO exchange (identity, role, degree)
//  1. election (PROMOTE/DEMOTE per the Section V-B rules)
//  2. genuine filter (consumer -> broker interest propagation; one
//     direction, both sides derive it from the shared election outcome)
//  3. relay filters + preferential forwarding (broker <-> broker)
//  4. interest-BF pulls (direct delivery + producer->broker replication)
//  5. BYE
func (s *session) run(now time.Duration) error {
	n := s.n

	// Phase 0: HELLO. BeginContact snapshots the role and degree this
	// session announces; the engine pins them for the contact.
	n.mu.Lock()
	n.eng.Purge(now)
	s.es = n.eng.BeginContact(&n.arenas, nil, now)
	self := s.es.Hello()
	n.mu.Unlock()
	wireSelf := hello{
		ID:     n.cfg.ID,
		Broker: self.Broker,
		Degree: uint16(min(self.Degree, 1<<16-1)),
	}
	var peer hello
	err := s.lockstep(
		func() error { return s.writeFrame(frameHello, wireSelf.encode()) },
		func() error {
			typ, body, err := s.readFrame()
			if err != nil {
				return err
			}
			if typ == frameBusy {
				return ErrPeerBusy
			}
			if typ != frameHello {
				return fmt.Errorf("%w: got frame %d, want %d", ErrProtocol, typ, frameHello)
			}
			peer, err = decodeHello(body)
			return err
		})
	if err != nil {
		return err
	}
	if peer.ID == n.cfg.ID {
		return fmt.Errorf("%w: peer claims our ID %d", ErrProtocol, peer.ID)
	}
	s.stats.Peer = peer.ID
	s.stats.Phase = PhaseHello

	// Phase 1: election. Each side announces one action for the peer;
	// the engine settles both (including the mutual-promotion tie-break).
	n.mu.Lock()
	s.es.SetPeer(engine.Hello{ID: int(peer.ID), Broker: peer.Broker, Degree: int(peer.Degree)})
	myAction := s.es.Elect()
	n.mu.Unlock()
	var peerAction byte
	err = s.lockstep(
		func() error { return s.writeFrame(frameElection, []byte{byte(myAction)}) },
		func() error {
			body, err := s.expectFrame(frameElection)
			if err != nil {
				return err
			}
			if len(body) != 1 || body[0] > electDemote {
				return fmt.Errorf("%w: bad election frame", ErrProtocol)
			}
			peerAction = body[0]
			return nil
		})
	if err != nil {
		return err
	}
	n.mu.Lock()
	s.es.Apply(myAction, engine.Action(peerAction))
	n.mu.Unlock()
	s.stats.Phase = PhaseElection

	// Phase 2: genuine filter, consumer -> broker only. Both sides agree
	// on the direction because both computed the same election outcome.
	switch {
	case s.es.SendsGenuine():
		n.mu.Lock()
		data, err := s.es.GenuineOut()
		n.mu.Unlock()
		if err != nil {
			return err
		}
		if err := s.writeFrame(frameGenuine, data); err != nil {
			return err
		}
	case s.es.ReceivesGenuine():
		body, err := s.expectFrame(frameGenuine)
		if err != nil {
			return err
		}
		n.mu.Lock()
		err = s.es.AbsorbGenuine(body)
		n.mu.Unlock()
		if err != nil {
			return err
		}
		if n.cfg.OnPeerGenuine != nil {
			n.cfg.OnPeerGenuine(peer.ID, body)
		}
	}
	s.stats.Phase = PhaseGenuine

	// Phase 3: relay exchange between brokers.
	if s.es.RelayExchange() {
		if err := s.relayPhase(now); err != nil {
			return err
		}
		s.stats.Phase = PhaseRelay
	}

	// Phase 4: interest pulls, initiator first.
	for _, asker := range []bool{s.initiator, !s.initiator} {
		if asker {
			if err := s.askDelivery(peer.ID, now); err != nil {
				return err
			}
			if s.es.SelfBroker() {
				if err := s.askReplication(now); err != nil {
					return err
				}
			}
		} else {
			if err := s.answerDelivery(); err != nil {
				return err
			}
			if s.es.PeerBroker() {
				if err := s.answerReplication(); err != nil {
					return err
				}
			}
		}
	}
	s.stats.Phase = PhasePull

	// Phase 5: BYE.
	return s.lockstep(
		func() error { return s.writeFrame(frameBye, nil) },
		func() error {
			_, err := s.expectFrame(frameBye)
			return err
		})
}

// Election actions; the byte values match engine.Action.
const (
	electNone byte = iota
	electPromote
	electDemote
)

// relayPhase exchanges relay filters, runs preferential forwarding both
// ways, then merges (M-merge by default). The engine snapshots the peer's
// pre-merge filter, so forwarding decisions never see merged state.
func (s *session) relayPhase(now time.Duration) error {
	n := s.n
	n.mu.Lock()
	rBytes, err := s.es.RelayOut()
	n.mu.Unlock()
	if err != nil {
		return err
	}
	err = s.lockstep(
		func() error { return s.writeFrame(frameRelay, rBytes) },
		func() error {
			body, err := s.expectFrame(frameRelay)
			if err != nil {
				return err
			}
			n.mu.Lock()
			err = s.es.SetPeerRelay(body)
			n.mu.Unlock()
			return err
		})
	if err != nil {
		return err
	}

	// Initiator forwards first; the responder picks its candidates after
	// storing the initiator's.
	err = s.lockstep(
		func() error {
			n.mu.Lock()
			cands, err := s.es.ForwardCandidates()
			n.mu.Unlock()
			if err != nil {
				return err
			}
			return s.sendCopies(cands)
		},
		func() error {
			return s.recvCopies("relay forwarding", func(msg workload.Message, payload []byte) {
				n.acceptCarried(msg, payload, now)
			})
		})
	if err != nil {
		return err
	}

	n.mu.Lock()
	err = s.es.MergeRelay()
	n.mu.Unlock()
	return err
}

// Interest-BF purposes.
const (
	pullDelivery byte = iota + 1
	pullReplication
)

// askDelivery requests messages matching our interests and ingests the
// response. The match was probabilistic (Bloom filter); the engine counts
// a delivery only if the copy is live and we really want it — a mismatch
// is a false-positive transfer. Either way the copy is ACKed: the ACK
// confirms receipt, not interest.
func (s *session) askDelivery(peerID uint32, now time.Duration) error {
	n := s.n
	n.mu.Lock()
	fBytes, err := s.es.InterestOut()
	n.mu.Unlock()
	if err != nil {
		return err
	}
	if err := s.writeFrame(frameInterestBF, append([]byte{pullDelivery}, fBytes...)); err != nil {
		return err
	}
	return s.recvCopies("delivery pull", func(msg workload.Message, payload []byte) {
		n.mu.Lock()
		acc := n.eng.ReceiveDelivery(msg, int(peerID), now)
		n.mu.Unlock()
		if acc.Delivered {
			n.deliver(msg, payload, acc.Direct)
		}
	})
}

// answerDelivery serves the peer's delivery request from our produced
// messages (direct) and carried copies (broker-mediated; a carried
// delivery hands the copy off, per Section V-D).
func (s *session) answerDelivery() error {
	body, err := s.readPull(pullDelivery)
	if err != nil {
		return err
	}
	s.n.mu.Lock()
	transfers, err := s.es.DeliveryMatches(body)
	s.n.mu.Unlock()
	if err != nil {
		return err
	}
	return s.sendCopies(transfers)
}

// askReplication advertises our relay filter and stores the returned
// copies.
func (s *session) askReplication(now time.Duration) error {
	n := s.n
	n.mu.Lock()
	fBytes, err := s.es.RelayAdvertOut()
	n.mu.Unlock()
	if err != nil {
		return err
	}
	if err := s.writeFrame(frameInterestBF, append([]byte{pullReplication}, fBytes...)); err != nil {
		return err
	}
	return s.recvCopies("replication pull", func(msg workload.Message, payload []byte) {
		n.acceptCarried(msg, payload, now)
	})
}

// answerReplication replicates matching produced messages to the broker,
// bounded by the copy limit; an exhausted message stops replicating but
// stays in the produced store until TTL so later contacts can still serve
// matching subscribers directly.
func (s *session) answerReplication() error {
	body, err := s.readPull(pullReplication)
	if err != nil {
		return err
	}
	s.n.mu.Lock()
	transfers, err := s.es.ReplicationMatches(body)
	s.n.mu.Unlock()
	if err != nil {
		return err
	}
	return s.sendCopies(transfers)
}

// sendCopies moves the transfers a matching step selected, then ends the
// stream with END. Each copy is claimed through the engine immediately
// before it travels — a concurrent session may already have spent it, and
// two sessions must never move the same copy — and is refunded unless the
// peer ACKs it (sendClaimed), so a contact severed mid-transfer loses no
// copies. A claim the engine refuses outright (an aborted session) ends
// the stream early.
func (s *session) sendCopies(transfers []engine.Transfer) error {
	for _, t := range transfers {
		s.n.mu.Lock()
		claim, ok := s.es.Claim(t)
		s.n.mu.Unlock()
		if claim == nil {
			if !ok {
				break
			}
			continue
		}
		if err := s.sendClaimed(claim); err != nil {
			return err
		}
	}
	return s.writeFrame(frameEndMessages, nil)
}

// recvCopies reads the peer's message stream until END, handing each
// decoded copy to accept and then ACKing it, which commits the sender's
// claim. Any other frame is a protocol error naming the phase.
func (s *session) recvCopies(phase string, accept func(workload.Message, []byte)) error {
	for {
		typ, body, err := s.readFrame()
		if err != nil {
			return err
		}
		if typ == frameEndMessages {
			return nil
		}
		if typ != frameMessage {
			return fmt.Errorf("%w: frame %d during %s", ErrProtocol, typ, phase)
		}
		msg, payload, err := decodeMessage(body)
		if err != nil {
			return err
		}
		accept(msg, payload)
		if err := s.writeAck(msg.ID); err != nil {
			return err
		}
	}
}

// readPull reads an interest-BF frame of the expected purpose and returns
// its filter bytes for the engine to decode.
func (s *session) readPull(purpose byte) ([]byte, error) {
	body, err := s.expectFrame(frameInterestBF)
	if err != nil {
		return nil, err
	}
	if len(body) < 1 || body[0] != purpose {
		return nil, fmt.Errorf("%w: interest BF purpose mismatch", ErrProtocol)
	}
	return body[1:], nil
}
