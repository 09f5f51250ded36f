package flowtable

import (
	"fmt"
	"math/rand"
	"testing"

	"legosdn/internal/openflow"
)

// benchTable builds a table of n entries — mostly exact-match rules
// plus a low-priority wildcard floor, the shape a learning switch
// produces — and a packet trace that hits the exact rules.
func benchTable(n int) (*Table, []openflow.PacketFields) {
	ft := New(nil)
	r := rand.New(rand.NewSource(1))
	packets := make([]openflow.PacketFields, 0, n)
	for i := 0; i < n-1; i++ {
		p := openflow.PacketFields{
			InPort: uint16(1 + r.Intn(48)),
			DlSrc:  openflow.EthAddr{2, 0, byte(i >> 16), byte(i >> 8), byte(i), 1},
			DlDst:  openflow.EthAddr{2, 0, byte(i >> 16), byte(i >> 8), byte(i), 2},
			DlType: 0x0800, NwProto: 6,
			NwSrc: 0x0a000000 + uint32(i),
			NwDst: 0x0a800000 + uint32(i),
			TpSrc: uint16(1024 + i%40000), TpDst: 80,
		}
		fm := &openflow.FlowMod{
			Match: exactMatchFor(p), Command: openflow.FlowModAdd,
			Priority: 100, BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
		}
		if _, err := ft.Apply(fm); err != nil {
			panic(err)
		}
		packets = append(packets, p)
	}
	// Table-miss floor: a fully wildcarded punt-to-controller rule.
	ft.Apply(&openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
		Priority: 1, BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortController}},
	})
	return ft, packets
}

// BenchmarkLookup compares the indexed hot path against the
// linear-scan reference at growing table sizes. The indexed path must
// report zero allocations.
func BenchmarkLookup(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		ft, packets := benchTable(n)
		b.Run(fmt.Sprintf("indexed/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ft.Lookup(packets[i%len(packets)], 64) == nil {
					b.Fatal("miss")
				}
			}
		})
		b.Run(fmt.Sprintf("linear/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ft.LookupLinear(packets[i%len(packets)]) == nil {
					b.Fatal("miss")
				}
			}
		})
	}
}
