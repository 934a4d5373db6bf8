package dram

// DPA is a DRAM device physical address: the post-translation address that
// selects a (rank, channel, segment, offset) tuple inside the device.
//
// Layout (Figure 6), from most to least significant:
//
//	| rank | segment index within (rank,channel) | channel | segment offset |
//
// Rank bits occupy the most significant positions so that ranks are NOT
// interleaved: consecutive device addresses stay within a rank until an
// entire rank's worth of segments has been consumed. Channel bits sit
// immediately above the segment offset so that consecutive segments rotate
// across channels, preserving channel-level parallelism for every VM.
//
// The layout is defined arithmetically (div/mod) rather than as literal bit
// slicing so that non-power-of-two channel and rank counts (e.g. the
// 6-rank configurations of Figure 2) decode with the same ordering; for
// power-of-two counts the two are identical, and the codec decodes those
// with shifts and masks.
type DPA int64

// HPA is a host physical address as issued over CXL, before DTL translation.
type HPA int64

// DSN is a DRAM segment number: DPA >> log2(segment size). It identifies a
// physical segment slot in the device.
type DSN int64

// HSN is a host segment number: HPA >> log2(segment size). It decomposes
// into host ID, allocation-unit (AU) ID and AU offset (Figure 4).
type HSN int64

// Loc is a fully decoded device segment location.
type Loc struct {
	Rank    int   // rank index within a channel
	Channel int   // channel index
	Index   int64 // segment index within the (rank, channel) pair
}

// AddressCodec converts between DPA/DSN values and decoded locations for a
// fixed geometry. All methods are pure; build one with NewAddressCodec.
type AddressCodec struct {
	geom        Geometry
	segShift    uint // log2(segment size)
	channels    divisor
	ranks       divisor // ranks per channel
	segsPerRkCh divisor
	banks       divisor
}

// divisor divides by a fixed positive d. A power-of-two d divides a
// non-negative value by shift and mask, which equal / and % exactly there;
// negative values and other divisors use / and %, which truncate toward zero
// where a shift would floor.
type divisor struct {
	d     int64
	shift uint
	mask  int64 // d-1 when d is a power of two, else -1
}

func newDivisor(d int64) divisor {
	q := divisor{d: d, shift: log2(d), mask: -1}
	if d&(d-1) == 0 {
		q.mask = d - 1
	}
	return q
}

// divmod returns v/d and v%d.
func (q divisor) divmod(v int64) (quo, rem int64) {
	if q.mask >= 0 && v >= 0 {
		return v >> q.shift, v & q.mask
	}
	return v / q.d, v % q.d
}

// NewAddressCodec builds a codec for g.
func NewAddressCodec(g Geometry) (*AddressCodec, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &AddressCodec{
		geom:        g,
		segShift:    log2(g.SegmentBytes),
		channels:    newDivisor(int64(g.Channels)),
		ranks:       newDivisor(int64(g.RanksPerChannel)),
		segsPerRkCh: newDivisor(g.SegmentsPerRank()),
		banks:       newDivisor(int64(g.BanksPerRank)),
	}, nil
}

// MustCodec is NewAddressCodec that panics on error, for tests and examples
// with known-good geometry.
func MustCodec(g Geometry) *AddressCodec {
	c, err := NewAddressCodec(g)
	if err != nil {
		panic(err)
	}
	return c
}

// Geometry returns the geometry the codec was built for.
func (c *AddressCodec) Geometry() Geometry { return c.geom }

// SegmentShift reports log2 of the segment size.
func (c *AddressCodec) SegmentShift() uint { return c.segShift }

// SegmentOf reports the DSN containing the device address.
func (c *AddressCodec) SegmentOf(a DPA) DSN { return DSN(int64(a) >> c.segShift) }

// HostSegmentOf reports the HSN containing the host address.
func (c *AddressCodec) HostSegmentOf(a HPA) HSN { return HSN(int64(a) >> c.segShift) }

// OffsetOf reports the byte offset of a within its segment.
func (c *AddressCodec) OffsetOf(a DPA) int64 { return int64(a) & (c.geom.SegmentBytes - 1) }

// DecodeDSN splits a DSN into its rank, channel and per-(rank,channel)
// index.
func (c *AddressCodec) DecodeDSN(s DSN) Loc {
	block, ch := c.channels.divmod(int64(s))
	rank, idx := c.segsPerRkCh.divmod(block)
	return Loc{Channel: int(ch), Index: idx, Rank: int(rank)}
}

// EncodeDSN is the inverse of DecodeDSN.
func (c *AddressCodec) EncodeDSN(l Loc) DSN {
	block := int64(l.Rank)*c.segsPerRkCh.d + l.Index
	return DSN(block*c.channels.d + int64(l.Channel))
}

// DSNToDPA returns the first device address of segment s.
func (c *AddressCodec) DSNToDPA(s DSN) DPA { return DPA(int64(s) << c.segShift) }

// Compose builds a full DPA from a segment and an in-segment offset.
func (c *AddressCodec) Compose(s DSN, offset int64) DPA {
	return DPA(int64(s)<<c.segShift | offset&(c.geom.SegmentBytes-1))
}

// RankOf reports the (channel, rank) pair servicing the device address.
func (c *AddressCodec) RankOf(a DPA) (channel, rank int) {
	l := c.DecodeDSN(c.SegmentOf(a))
	return l.Channel, l.Rank
}

// rowBlock is the bank-interleaving granularity: one 4 KiB row buffer.
const rowBlock = 4 << 10

// BankOf reports the bank within the rank servicing the device address.
// Banks are interleaved across 4 KiB row-buffer-sized blocks inside a
// segment, the conventional low-order bank hash.
func (c *AddressCodec) BankOf(a DPA) int {
	_, bank := c.banks.divmod(int64(a) / rowBlock)
	return int(bank)
}

// RowOf reports the DRAM row addressed within the bank (used for row-buffer
// hit/miss decisions in the timing model).
func (c *AddressCodec) RowOf(a DPA) int64 {
	row, _ := c.banks.divmod(int64(a) / rowBlock)
	return row
}

// GlobalRank flattens a (channel, rank) pair into a device-wide rank id.
func (c *AddressCodec) GlobalRank(channel, rank int) int {
	return rank*c.geom.Channels + channel
}

// SplitGlobalRank is the inverse of GlobalRank.
func (c *AddressCodec) SplitGlobalRank(gr int) (channel, rank int) {
	return gr % c.geom.Channels, gr / c.geom.Channels
}

// RankInterleavedDSN maps a sequential segment number to a device segment
// under conventional fine-grained rank interleaving: consecutive segments
// rotate over channels first, then over ranks, so adjacent traffic spreads
// across every rank. This is the baseline mapping the paper's Figure 5
// compares against (DTL itself never uses it).
func (c *AddressCodec) RankInterleavedDSN(seq int64) DSN {
	rest, ch := c.channels.divmod(seq)
	idx, rank := c.ranks.divmod(rest)
	_, idx = c.segsPerRkCh.divmod(idx)
	return c.EncodeDSN(Loc{Rank: int(rank), Channel: int(ch), Index: idx})
}

func log2(v int64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
