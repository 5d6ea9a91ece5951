// Package vm simulates operating-system demand paging over the
// ancestral-vector address space. It is the substitute for the paper's
// §4.3 baseline — standard RAxML running on a 2 GB machine with 36 GB
// of swap — which cannot be reproduced literally in CI. The simulator
// keeps the vector data itself in real RAM (so results stay bit-exact)
// while modelling the *cost* of a bounded physical memory: a page table
// over 4 KiB pages, an LRU frame pool, dirty-page write-back and
// configurable sequential readahead, all charged against the same
// iosim.Device the out-of-core manager uses. The design difference the
// paper measures — page-granular, partially random faulting versus
// whole-vector amortised swaps — is therefore priced identically on
// both sides.
package vm

import (
	"errors"
	"fmt"

	"oocphylo/internal/iosim"
)

// DefaultPageSize is the x86-64 base page size.
const DefaultPageSize = 4096

// DefaultReadahead is the number of pages loaded per swap-in fault.
// Swap readahead is much smaller than file readahead: Linux's default
// vm.page-cluster = 3 reads 2³ = 8 pages (32 KiB) per major fault —
// one of the two granularity gaps (with forced reads of pages about to
// be overwritten) that make OS paging lose to whole-vector out-of-core
// transfers in the paper's Figure 5.
const DefaultReadahead = 8

// DefaultWriteCluster is the number of swap-out writes batched under a
// single positioning latency (Linux's page-cluster swap write batching).
const DefaultWriteCluster = 32

// Stats counts simulated paging activity.
type Stats struct {
	// Touches is the number of page touches requested.
	Touches int64
	// MinorFaults counts first-touch zero-fill faults (frame allocation,
	// no device I/O — anonymous memory is not read from anywhere).
	MinorFaults int64
	// MajorFaults is the number of swap-in events (each may read several
	// pages due to readahead).
	MajorFaults int64
	// PagesRead and PagesWritten count page-granular device traffic.
	PagesRead, PagesWritten int64
}

// PagedMemory models a bounded physical memory in front of a swap
// device. Addresses are byte offsets into a flat space.
type PagedMemory struct {
	pageSize  int
	readahead int
	dev       iosim.Device
	clock     *iosim.Clock

	// Per-page state plus an intrusive LRU list over resident pages.
	resident []bool
	dirty    []bool
	// inSwap marks pages with a copy on the swap device (they were
	// written back at least once); only these cost a read to fault in.
	inSwap []bool
	prev   []int32
	next   []int32
	head   int32 // most recently used
	tail   int32 // least recently used
	free   int   // remaining frames

	// writeCluster batches swap-out positioning costs: one device
	// latency per writeCluster page write-backs (bandwidth is always
	// charged), modelling the OS's swap write clustering.
	writeCluster  int
	pendingWrites int

	stats Stats
}

// Config configures a PagedMemory.
type Config struct {
	// TotalBytes is the size of the pageable address space.
	TotalBytes int64
	// PhysicalBytes is the RAM budget; the frame pool holds
	// PhysicalBytes/PageSize pages.
	PhysicalBytes int64
	// PageSize defaults to DefaultPageSize.
	PageSize int
	// Readahead is the pages-per-fault window; defaults to
	// DefaultReadahead. Set to 1 to disable readahead.
	Readahead int
	// WriteCluster is the number of swap-out page writes sharing one
	// positioning latency; defaults to DefaultWriteCluster. Set to 1 to
	// charge a full seek per page write.
	WriteCluster int
	// Device is the swap device model.
	Device iosim.Device
	// Clock receives the I/O charges.
	Clock *iosim.Clock
}

// New validates cfg and builds the page table.
func New(cfg Config) (*PagedMemory, error) {
	if cfg.PageSize == 0 {
		cfg.PageSize = DefaultPageSize
	}
	if cfg.Readahead == 0 {
		cfg.Readahead = DefaultReadahead
	}
	if cfg.WriteCluster == 0 {
		cfg.WriteCluster = DefaultWriteCluster
	}
	if cfg.PageSize < 512 || cfg.Readahead < 1 || cfg.WriteCluster < 1 {
		return nil, fmt.Errorf("vm: invalid page size %d / readahead %d / write cluster %d",
			cfg.PageSize, cfg.Readahead, cfg.WriteCluster)
	}
	if cfg.TotalBytes <= 0 || cfg.PhysicalBytes <= 0 {
		return nil, fmt.Errorf("vm: invalid geometry: total %d, physical %d", cfg.TotalBytes, cfg.PhysicalBytes)
	}
	if cfg.Clock == nil {
		return nil, errors.New("vm: Clock is required")
	}
	nPages := int((cfg.TotalBytes + int64(cfg.PageSize) - 1) / int64(cfg.PageSize))
	frames := int(cfg.PhysicalBytes / int64(cfg.PageSize))
	if frames < 1 {
		return nil, errors.New("vm: physical memory smaller than one page")
	}
	if frames > nPages {
		frames = nPages
	}
	m := &PagedMemory{
		pageSize:     cfg.PageSize,
		readahead:    cfg.Readahead,
		writeCluster: cfg.WriteCluster,
		dev:          cfg.Device,
		clock:        cfg.Clock,
		resident:     make([]bool, nPages),
		dirty:        make([]bool, nPages),
		inSwap:       make([]bool, nPages),
		prev:         make([]int32, nPages),
		next:         make([]int32, nPages),
		head:         -1,
		tail:         -1,
		free:         frames,
	}
	return m, nil
}

// Stats returns the counters.
func (m *PagedMemory) Stats() Stats { return m.stats }

// ResetStats zeroes the counters (page table state is kept).
func (m *PagedMemory) ResetStats() { m.stats = Stats{} }

// lruRemove unlinks page p from the LRU list.
func (m *PagedMemory) lruRemove(p int32) {
	if m.prev[p] >= 0 {
		m.next[m.prev[p]] = m.next[p]
	} else {
		m.head = m.next[p]
	}
	if m.next[p] >= 0 {
		m.prev[m.next[p]] = m.prev[p]
	} else {
		m.tail = m.prev[p]
	}
}

// lruPush makes page p the most recently used.
func (m *PagedMemory) lruPush(p int32) {
	m.prev[p] = -1
	m.next[p] = m.head
	if m.head >= 0 {
		m.prev[m.head] = p
	}
	m.head = p
	if m.tail < 0 {
		m.tail = p
	}
}

// evictOne drops the least recently used page, charging a write-back if
// it is dirty. Swap-out positioning latency is amortised over
// writeCluster consecutive write-backs (bandwidth is always charged).
func (m *PagedMemory) evictOne() {
	p := m.tail
	if p < 0 {
		return
	}
	m.lruRemove(p)
	m.resident[p] = false
	if m.dirty[p] {
		m.dirty[p] = false
		m.inSwap[p] = true
		m.stats.PagesWritten++
		m.pendingWrites++
		dev := m.dev
		if m.pendingWrites > 1 {
			dev = iosimZeroLatency(dev) // amortised into the cluster head
		}
		if m.pendingWrites >= m.writeCluster {
			m.pendingWrites = 0
		}
		m.clock.Charge(dev, int64(m.pageSize))
	}
	m.free++
}

// ensureResident faults page p in (with readahead over the contiguous
// swapped-out run) if needed. Pages never written back are zero-filled
// minor faults with no device traffic.
func (m *PagedMemory) ensureResident(p int32) {
	if m.resident[p] {
		m.lruRemove(p)
		m.lruPush(p)
		return
	}
	if !m.inSwap[p] {
		// Anonymous first touch: allocate a zeroed frame.
		m.stats.MinorFaults++
		if m.free == 0 {
			m.evictOne()
		}
		m.resident[p] = true
		m.dirty[p] = false
		m.free--
		m.lruPush(p)
		return
	}
	// Major fault: swap in p plus up to readahead-1 following swapped
	// pages in one device operation.
	m.stats.MajorFaults++
	loaded := int64(0)
	last := int(p) + m.readahead
	if last > len(m.resident) {
		last = len(m.resident)
	}
	for q := int(p); q < last; q++ {
		if q > int(p) && !m.inSwap[q] {
			break // readahead window ends at the swapped-out run
		}
		if m.resident[q] {
			continue
		}
		if m.free == 0 {
			m.evictOne()
		}
		m.resident[q] = true
		m.dirty[q] = false
		m.free--
		m.lruPush(int32(q))
		loaded++
		m.stats.PagesRead++
	}
	// One positioning latency, size-proportional transfer.
	m.clock.Charge(m.dev, loaded*int64(m.pageSize))
}

// iosimZeroLatency returns dev with its positioning latency removed,
// for charges amortised into an already-paid positioning.
func iosimZeroLatency(d iosim.Device) iosim.Device {
	d.Latency = 0
	return d
}

// Touch simulates an access to [off, off+length) bytes. write marks the
// pages dirty.
func (m *PagedMemory) Touch(off, length int64, write bool) error {
	if off < 0 || length < 0 || (off+length+int64(m.pageSize)-1)/int64(m.pageSize) > int64(len(m.resident)) {
		return fmt.Errorf("vm: touch [%d, %d) outside address space", off, off+length)
	}
	if length == 0 {
		return nil
	}
	first := off / int64(m.pageSize)
	last := (off + length - 1) / int64(m.pageSize)
	for p := first; p <= last; p++ {
		m.stats.Touches++
		m.ensureResident(int32(p))
		if write {
			m.dirty[p] = true
		}
	}
	return nil
}
