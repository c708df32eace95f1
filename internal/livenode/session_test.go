package livenode

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"bsub/internal/workload"
)

// TestRecvCopiesRejectsStrayFrame feeds each receiving phase one valid
// message frame followed by a stray BYE. The copy must be accepted and
// ACKed before the stray frame ends the stream with an ErrProtocol that
// names the phase, and nothing may be written after the ACK.
func TestRecvCopiesRejectsStrayFrame(t *testing.T) {
	msg := workload.Message{ID: 42, Key: "k", Origin: 7, Size: 3}
	body, err := encodeMessage(msg, []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"relay forwarding", "delivery pull", "replication pull"} {
		t.Run(phase, func(t *testing.T) {
			var in, out bytes.Buffer
			if err := writeFrame(&in, frameMessage, body); err != nil {
				t.Fatal(err)
			}
			if err := writeFrame(&in, frameBye, nil); err != nil {
				t.Fatal(err)
			}
			s := &session{conn: struct {
				io.Reader
				io.Writer
			}{&in, &out}}

			var got []workload.Message
			err := s.recvCopies(phase, func(m workload.Message, payload []byte) {
				if string(payload) != "abc" {
					t.Errorf("payload %q, want %q", payload, "abc")
				}
				got = append(got, m)
			})
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("err = %v, want ErrProtocol", err)
			}
			if !strings.Contains(err.Error(), phase) {
				t.Errorf("error %q does not name the phase %q", err, phase)
			}
			if len(got) != 1 || got[0].ID != msg.ID {
				t.Fatalf("accepted %v, want message %d once", got, msg.ID)
			}
			typ, ack, err := readFrame(&out)
			if err != nil || typ != frameMsgAck {
				t.Fatalf("first reply: frame %d, err %v; want an ACK", typ, err)
			}
			if id, err := decodeAck(ack); err != nil || id != msg.ID {
				t.Fatalf("ACK for %d (err %v), want %d", id, err, msg.ID)
			}
			if out.Len() != 0 {
				t.Errorf("%d bytes written after the ACK", out.Len())
			}
		})
	}
}
