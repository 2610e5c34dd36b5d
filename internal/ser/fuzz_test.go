package ser

import (
	"math"
	"testing"
)

// FuzzFrameStream pins the wire-surface contract of the frame layer:
// the engine's receive loop parses (channel-id uvarint, length-prefixed
// frame)* streams arriving from sockets with ReadIndex and
// ReadFrameInto under Decode, and arbitrary bytes must always yield an
// error or a clean parse — never an escaped panic, never a frame view
// extending past the stream.
func FuzzFrameStream(f *testing.F) {
	// a valid two-frame stream
	valid := NewBuffer(64)
	valid.WriteUvarint(0)
	fr := valid.BeginFrame()
	valid.WriteUint32(0xABCD)
	valid.EndFrame(fr)
	valid.WriteUvarint(1)
	fr = valid.BeginFrame()
	valid.EndFrame(fr)
	f.Add(append([]byte(nil), valid.Bytes()...))
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0x7f}) // frame length far past the end
	f.Add([]byte{0x80})                         // dangling uvarint continuation
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		b := FromBytes(append([]byte(nil), data...))
		var sub Buffer
		for b.Remaining() > 0 {
			before := b.Remaining()
			if err := Decode(func() {
				b.ReadIndex(math.MaxInt)
				b.ReadFrameInto(&sub)
			}); err != nil {
				return
			}
			if sub.Remaining() > b.Len() {
				t.Fatalf("frame view larger than the stream: %d > %d", sub.Remaining(), b.Len())
			}
			if b.Remaining() >= before {
				t.Fatalf("parser made no progress at %d remaining", before)
			}
		}
	})
}
