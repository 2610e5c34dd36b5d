package channel

import (
	"slices"
	"strings"
	"testing"
)

// script packs frames into one fuzz input, each behind a length byte;
// cutScript is its inverse on arbitrary bytes, stopping at four frames.
func script(frames ...[]byte) []byte {
	var out []byte
	for _, fr := range frames {
		out = append(append(out, byte(len(fr))), fr...)
	}
	return out
}

func cutScript(data []byte) [][]byte {
	var frames [][]byte
	for len(data) > 0 && len(frames) < 4 {
		n := min(int(data[0]), len(data)-1)
		frames = append(frames, data[1:1+n])
		data = data[1+n:]
	}
	return frames
}

// FuzzScatterFrames pins the wire-surface contract of the ScatterCombine
// receiver: whatever frame sequence a peer sends (the input is cut into
// up to four length-prefixed frames, one per superstep), the job either
// fails with a worker error or every accepted destination list is
// strictly ascending and inside the worker's vertex range and values
// landed only on listed destinations — never an out-of-range access.
func FuzzScatterFrames(f *testing.F) {
	hello := slices.Concat([]byte{scFrameTable, 2, 0, 2}, u32le(10, 20))
	f.Add(script(hello, slices.Concat([]byte{0}, u32le(3, 4)), slices.Concat([]byte{scFramePartial, 0b10}, u32le(9))))
	f.Add(script(hello, hello))
	f.Add(script(slices.Concat([]byte{0}, u32le(1, 2))))
	f.Add(script(slices.Concat([]byte{scFrameTable, 1, 4}, u32le(1))))
	f.Add(script(slices.Concat([]byte{scFrameTable | scFramePartial, 3, 1, 1, 1, 0b101}, u32le(1, 2))))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		frames := cutScript(data)
		recv, err := runRogue(frames)
		if err != nil {
			if strings.Contains(err.Error(), "runtime error") {
				t.Fatalf("frame reached an unchecked access: %v", err)
			}
			return
		}
		listed := make([]bool, len(recv.in.val))
		for src, tab := range recv.tab {
			if src != 0 && tab != nil {
				t.Fatalf("destination list from silent worker %d", src)
			}
			for k, li := range tab {
				if int(li) >= len(listed) || k > 0 && li <= tab[k-1] {
					t.Fatalf("accepted destination list %v", tab)
				}
				listed[li] = true
			}
		}
		for li, e := range recv.in.epoch {
			if e != 0 && !listed[li] {
				t.Fatalf("value delivered to unlisted local %d", li)
			}
		}
	})
}

// FuzzRequestRespondFrames pins the same contract for the
// RequestRespond receiver: whatever a peer sends in the request and
// respond rounds of two conversations (the input is cut into up to four
// length-prefixed frames), the job either fails with a worker error or
// every response a vertex reads is one the peer sent for its request —
// never an index out of range, in Deserialize or after it.
func FuzzRequestRespondFrames(f *testing.F) {
	f.Add(script(uvarints(2, 3, 0), slices.Concat(uvarints(2), u32le(70, 80))))
	f.Add(script(uvarints(1, 4)))
	f.Add(script(nil, slices.Concat(uvarints(3), u32le(1, 2, 3))))
	f.Add(script(nil, uvarints(2), uvarints(1, 9), slices.Concat(uvarints(2), u32le(1, 2))))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		frames := cutScript(data)
		_, got, has, err := runRogueRR(frames)
		if err != nil {
			if strings.Contains(err.Error(), "runtime error") {
				t.Fatalf("frame reached an unchecked access: %v", err)
			}
			return
		}
		// an accepted first conversation answered both requests or none
		if has != [4]bool{} && has != [4]bool{true, true, true, false} {
			t.Fatalf("responses reached %v", has)
		}
		if has[0] && (got[0] != got[2] || len(frames) < 2 || !slices.Equal(frames[1], slices.Concat(uvarints(2), u32le(got[0], got[1])))) {
			t.Fatalf("read %v from response frame %v", got, frames)
		}
	})
}
