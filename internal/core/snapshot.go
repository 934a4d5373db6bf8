package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

// Metadata persistence is the availability extension the paper's conclusion
// motivates: the DTL's mapping state (segment mapping table, allocation
// state, rank power states) is small — Table 5 puts it in megabytes even
// for a 4 TB device — so the controller can checkpoint it to its own
// reserved DRAM/flash region and survive a firmware restart without losing
// the host's address space.
//
// The format is a flat little-endian stream guarded by a CRC32 trailer:
//
//	magic, version, geometry, AU size, max hosts,
//	rank records (state, retired),
//	powered-down groups,
//	segment mappings (hsn, dsn)*,
//	VM records (id, host, AU ids)*,
//	per-host free AU queues.
//
// Volatile state (SMC contents, migration-table plans, in-flight copy
// windows, statistics) is deliberately not persisted: caches refill, plans
// rebuild, and in-flight copies are idempotent to redo.

const (
	snapshotMagic   = 0x44544c31 // "DTL1"
	snapshotVersion = 1
)

type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

func put(w io.Writer, vs ...int64) error {
	for _, v := range vs {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func get(r io.Reader, vs ...*int64) error {
	for _, v := range vs {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// SaveMetadata serializes the DTL's durable state to w.
func (d *DTL) SaveMetadata(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	g := d.cfg.Geometry

	if err := put(cw,
		snapshotMagic, snapshotVersion,
		int64(g.Channels), int64(g.RanksPerChannel), int64(g.BanksPerRank),
		g.SegmentBytes, g.RankBytes,
		d.cfg.AUBytes, int64(d.cfg.MaxHosts),
	); err != nil {
		return err
	}

	// Rank records.
	for gr := 0; gr < g.TotalRanks(); gr++ {
		ch, rk := d.codec.SplitGlobalRank(gr)
		state := int64(d.dev.State(dram.RankID{Channel: ch, Rank: rk}))
		retired := int64(0)
		if d.retired[gr] {
			retired = 1
		}
		if err := put(cw, state, retired); err != nil {
			return err
		}
	}

	// Powered-down virtual groups.
	if err := put(cw, int64(len(d.poweredDown))); err != nil {
		return err
	}
	for _, group := range d.poweredDown {
		if err := put(cw, int64(len(group))); err != nil {
			return err
		}
		for _, id := range group {
			if err := put(cw, int64(id.Channel), int64(id.Rank)); err != nil {
				return err
			}
		}
	}

	// Segment mapping table. The dense table iterates in ascending HSN
	// order, so the stream is deterministic without a sort pass.
	if err := put(cw, int64(d.segMap.len())); err != nil {
		return err
	}
	var mapErr error
	d.segMap.forEach(func(hsn dram.HSN, dsn dram.DSN) {
		if mapErr == nil {
			mapErr = put(cw, int64(hsn), int64(dsn))
		}
	})
	if mapErr != nil {
		return mapErr
	}

	// VM records, sorted by id.
	ids := make([]VMID, 0, len(d.vms))
	for id := range d.vms {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if err := put(cw, int64(len(ids))); err != nil {
		return err
	}
	for _, id := range ids {
		st := d.vms[id]
		if err := put(cw, int64(id), int64(st.host), int64(len(st.aus))); err != nil {
			return err
		}
		if err := put(cw, st.aus...); err != nil {
			return err
		}
	}

	// Free AU queues per host.
	for h := 0; h < d.cfg.MaxHosts; h++ {
		if err := put(cw, int64(d.auFree[h].len())); err != nil {
			return err
		}
		if err := put(cw, d.auFree[h].items()...); err != nil {
			return err
		}
	}

	// CRC trailer (over everything before it).
	if err := binary.Write(bw, binary.LittleEndian, cw.crc); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadMetadata reconstructs a DTL from a snapshot. The caller supplies the
// same configuration the device was built with (thresholds and cache sizes
// are configuration, not durable state); geometry and allocation-unit
// parameters are cross-checked against the snapshot.
func LoadMetadata(r io.Reader, cfg Config) (*DTL, error) {
	cr := &crcReader{r: bufio.NewReader(r)}

	var magic, version int64
	var chans, ranks, banks, segBytes, rankBytes, auBytes, maxHosts int64
	if err := get(cr, &magic, &version, &chans, &ranks, &banks, &segBytes, &rankBytes, &auBytes, &maxHosts); err != nil {
		return nil, fmt.Errorf("core: snapshot header: %w", err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("core: bad snapshot magic %#x", magic)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", version)
	}

	d, err := New(cfg)
	if err != nil {
		return nil, err
	}
	g := d.cfg.Geometry
	if int(chans) != g.Channels || int(ranks) != g.RanksPerChannel ||
		segBytes != g.SegmentBytes || rankBytes != g.RankBytes {
		return nil, fmt.Errorf("core: snapshot geometry %dx%d/%d/%d does not match config %v",
			chans, ranks, segBytes, rankBytes, g)
	}
	if auBytes != d.cfg.AUBytes || int(maxHosts) != d.cfg.MaxHosts {
		return nil, fmt.Errorf("core: snapshot AU/hosts (%d/%d) do not match config (%d/%d)",
			auBytes, maxHosts, d.cfg.AUBytes, d.cfg.MaxHosts)
	}

	// Rank records: restore power states and retirement. State transitions
	// happen at time zero with no penalty accounting (the device restarts).
	for gr := 0; gr < g.TotalRanks(); gr++ {
		var state, retired int64
		if err := get(cr, &state, &retired); err != nil {
			return nil, fmt.Errorf("core: snapshot rank %d: %w", gr, err)
		}
		ch, rk := d.codec.SplitGlobalRank(gr)
		id := dram.RankID{Channel: ch, Rank: rk}
		if state < 0 || state > int64(dram.MPSM) {
			return nil, fmt.Errorf("core: snapshot rank %d has invalid state %d", gr, state)
		}
		d.dev.SetState(id, dram.PowerState(state), sim.Time(0))
		if retired == 1 {
			if d.retired == nil {
				d.retired = make(map[int]bool)
			}
			d.retired[gr] = true
			d.free[gr].reset()
		}
	}

	var nGroups int64
	if err := get(cr, &nGroups); err != nil {
		return nil, err
	}
	if nGroups < 0 || nGroups > int64(g.RanksPerChannel) {
		return nil, fmt.Errorf("core: snapshot has %d powered-down groups", nGroups)
	}
	for i := int64(0); i < nGroups; i++ {
		var n int64
		if err := get(cr, &n); err != nil {
			return nil, err
		}
		if n < 0 || n > int64(g.Channels) {
			return nil, fmt.Errorf("core: snapshot group %d has %d members", i, n)
		}
		group := make([]dram.RankID, n)
		for j := range group {
			var ch, rk int64
			if err := get(cr, &ch, &rk); err != nil {
				return nil, err
			}
			group[j] = dram.RankID{Channel: int(ch), Rank: int(rk)}
		}
		d.poweredDown = append(d.poweredDown, group)
	}

	// Segment mappings; rebuild revMap and allocation counters, then derive
	// the free queues from what is not mapped.
	var nMaps int64
	if err := get(cr, &nMaps); err != nil {
		return nil, err
	}
	if nMaps < 0 || nMaps > g.TotalSegments() {
		return nil, fmt.Errorf("core: snapshot maps %d segments of %d", nMaps, g.TotalSegments())
	}
	for i := int64(0); i < nMaps; i++ {
		var hsn, dsn int64
		if err := get(cr, &hsn, &dsn); err != nil {
			return nil, err
		}
		if dsn < 0 || dsn >= g.TotalSegments() {
			return nil, fmt.Errorf("core: snapshot dsn %d out of range", dsn)
		}
		if d.revMap[dsn] != dsnFree {
			return nil, fmt.Errorf("core: snapshot maps dsn %d twice", dsn)
		}
		d.segMap.set(dram.HSN(hsn), dram.DSN(dsn))
		d.revMap[dsn] = dram.HSN(hsn)
	}
	for gr := range d.free {
		d.free[gr].reset()
		d.allocated[gr] = 0
	}
	for s := dram.DSN(0); int64(s) < g.TotalSegments(); s++ {
		l := d.codec.DecodeDSN(s)
		gr := d.codec.GlobalRank(l.Channel, l.Rank)
		if d.retired[gr] {
			if d.revMap[s] != dsnFree {
				return nil, fmt.Errorf("core: snapshot maps dsn %d on retired rank", s)
			}
			continue
		}
		if d.revMap[s] == dsnFree {
			d.free[gr].push(int32(s))
		} else {
			d.allocated[gr]++
		}
	}

	// VM records.
	var nVMs int64
	if err := get(cr, &nVMs); err != nil {
		return nil, err
	}
	if nVMs < 0 {
		return nil, fmt.Errorf("core: snapshot has %d VMs", nVMs)
	}
	for i := int64(0); i < nVMs; i++ {
		var id, host, nAUs int64
		if err := get(cr, &id, &host, &nAUs); err != nil {
			return nil, err
		}
		if host < 0 || host >= int64(d.cfg.MaxHosts) || nAUs < 0 || nAUs > d.cfg.TotalAUs() {
			return nil, fmt.Errorf("core: snapshot vm %d invalid (host %d, aus %d)", id, host, nAUs)
		}
		st := &vmState{host: HostID(host), aus: make([]int64, nAUs)}
		if err := getSlice(cr, st.aus); err != nil {
			return nil, err
		}
		for _, au := range st.aus {
			for off := int64(0); off < d.cfg.SegmentsPerAU(); off++ {
				hsn := d.hsnOf(st.host, au, off)
				if _, ok := d.segMap.get(hsn); !ok {
					return nil, fmt.Errorf("core: snapshot vm %d missing mapping for hsn %d", id, hsn)
				}
			}
		}
		d.vms[VMID(id)] = st
	}

	// Free AU queues.
	for h := 0; h < d.cfg.MaxHosts; h++ {
		var n int64
		if err := get(cr, &n); err != nil {
			return nil, err
		}
		if n < 0 || n > d.cfg.TotalAUs() {
			return nil, fmt.Errorf("core: snapshot host %d has %d free AUs", h, n)
		}
		aus := make([]int64, n)
		if err := getSlice(cr, aus); err != nil {
			return nil, err
		}
		d.auFree[h].reset()
		d.auFree[h].pushAll(aus)
	}

	wantCRC := cr.crc
	var gotCRC uint32
	if err := binary.Read(cr.r, binary.LittleEndian, &gotCRC); err != nil {
		return nil, fmt.Errorf("core: snapshot CRC: %w", err)
	}
	if gotCRC != wantCRC {
		return nil, fmt.Errorf("core: snapshot CRC mismatch: %#x != %#x", gotCRC, wantCRC)
	}

	if err := d.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("core: restored snapshot inconsistent: %w", err)
	}
	return d, nil
}

func getSlice(r io.Reader, out []int64) error {
	for i := range out {
		if err := binary.Read(r, binary.LittleEndian, &out[i]); err != nil {
			return err
		}
	}
	return nil
}
