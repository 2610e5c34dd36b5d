package channel

import (
	"slices"
	"strings"
	"testing"
)

// FuzzScatterFrames pins the wire-surface contract of the ScatterCombine
// receiver: whatever frame sequence a peer sends (the input is cut into
// up to four length-prefixed frames, one per superstep), the job either
// fails with a worker error or every accepted destination list is
// strictly ascending and inside the worker's vertex range and values
// landed only on listed destinations — never an out-of-range access.
func FuzzScatterFrames(f *testing.F) {
	hello := slices.Concat([]byte{scFrameTable, 2, 0, 2}, u32le(10, 20))
	script := func(frames ...[]byte) []byte {
		var out []byte
		for _, fr := range frames {
			out = append(append(out, byte(len(fr))), fr...)
		}
		return out
	}
	f.Add(script(hello, slices.Concat([]byte{0}, u32le(3, 4)), slices.Concat([]byte{scFramePartial, 0b10}, u32le(9))))
	f.Add(script(hello, hello))
	f.Add(script(slices.Concat([]byte{0}, u32le(1, 2))))
	f.Add(script(slices.Concat([]byte{scFrameTable, 1, 4}, u32le(1))))
	f.Add(script(slices.Concat([]byte{scFrameTable | scFramePartial, 3, 1, 1, 1, 0b101}, u32le(1, 2))))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var frames [][]byte
		for len(data) > 0 && len(frames) < 4 {
			n := min(int(data[0]), len(data)-1)
			frames = append(frames, data[1:1+n])
			data = data[1+n:]
		}
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
