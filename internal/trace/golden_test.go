package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// streamDigest hashes n accesses of next: address, write flag and
// instruction clock of each, little-endian.
func streamDigest(next func() Access, n int) string {
	h := sha256.New()
	var buf [17]byte
	for i := 0; i < n; i++ {
		a := next()
		binary.LittleEndian.PutUint64(buf[0:], uint64(a.Addr))
		buf[8] = 0
		if a.Write {
			buf[8] = 1
		}
		binary.LittleEndian.PutUint64(buf[9:], uint64(a.Instr))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ctrlReplayMix is the controller replay's stream: all ten CloudSuite
// profiles at 16 GiB each, as fig2 and the ctrl-replay benchmark merge them.
func ctrlReplayMix(seed int64) *Mixed {
	ps := CloudSuite()
	for i := range ps {
		ps[i].FootprintBytes = 16 << 30
	}
	return MustMixed(ps, seed)
}

// TestStreamGolden pins the generated streams to digests recorded while the
// generators drew from math/rand itself: every simulated figure is a
// function of these draws, so any change to the value stream shows here
// first.
func TestStreamGolden(t *testing.T) {
	drifting := func() *Generator {
		p, _ := ProfileByName("data-caching")
		p.FootprintBytes = 256 << 20
		p.DriftPeriod = 4096
		p.DriftFraction = 0.25
		return MustGenerator(p, 5)
	}
	raw := func() *Generator {
		p, _ := ProfileByName("web-serving")
		p.FootprintBytes = 512 << 20
		return MustGenerator(p, -3)
	}
	cases := []struct {
		name string
		next func() Access
		want string
	}{
		{"ctrl-replay-mix", ctrlReplayMix(1).Next, "950404e21bd7ec48cfbcc35c2f62126d2ca8a5a85a07264df36ceedd58e3c7b8"},
		{"drift", drifting().Next, "32744dccc797dd963231fa06f9ccb32fb4b7303325a527e4259c8c5461c1663d"},
		{"raw", raw().NextRaw, "d080305427febacac52b02ec1c6828e85e878e074d8a1b338b1f7d6e459daaeb"},
	}
	for _, c := range cases {
		if got := streamDigest(c.next, 1<<20); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
