package dram

import "testing"

// FuzzAddressCodec checks the codec's shift-and-mask decode against plain
// div/mod over random geometries, power-of-two or not (6 ranks, 12 GiB
// ranks of 6144 segments, odd channel and bank counts), and checks that
// EncodeDSN inverts DecodeDSN.
func FuzzAddressCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, channels, ranks, banks, segLog uint8, rankSegs uint16, dsn, dpa int64) {
		g := Geometry{
			Channels:        1 + int(channels%8),
			RanksPerChannel: 1 + int(ranks%16),
			BanksPerRank:    1 + int(banks%32),
			SegmentBytes:    MiB << (segLog % 4),
		}
		g.RankBytes = g.SegmentBytes * (1 + int64(rankSegs))
		c, err := NewAddressCodec(g)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		C, S, B := int64(g.Channels), g.SegmentsPerRank(), int64(g.BanksPerRank)
		decode := func(v int64) Loc {
			return Loc{Channel: int(v % C), Index: v / C % S, Rank: int(v / C / S)}
		}
		for _, v := range []int64{dsn, dsn & (1<<63 - 1), dsn % (g.TotalSegments() + 1)} {
			want := decode(v)
			got := c.DecodeDSN(DSN(v))
			if got != want {
				t.Fatalf("%v: DecodeDSN(%d) = %+v, want %+v", g, v, got, want)
			}
			if back := c.EncodeDSN(got); back != DSN(v) {
				t.Fatalf("%v: EncodeDSN(DecodeDSN(%d)) = %d", g, v, back)
			}
		}
		for _, a := range []int64{dpa, dpa & (1<<63 - 1), dpa % (g.TotalBytes() + 1)} {
			l := decode(a >> c.SegmentShift())
			if ch, rk := c.RankOf(DPA(a)); ch != l.Channel || rk != l.Rank {
				t.Fatalf("%v: RankOf(%d) = (%d, %d), want (%d, %d)", g, a, ch, rk, l.Channel, l.Rank)
			}
			if got, want := c.BankOf(DPA(a)), int(a/rowBlock%B); got != want {
				t.Fatalf("%v: BankOf(%d) = %d, want %d", g, a, got, want)
			}
			if got, want := c.RowOf(DPA(a)), a/rowBlock/B; got != want {
				t.Fatalf("%v: RowOf(%d) = %d, want %d", g, a, got, want)
			}
		}
	})
}
