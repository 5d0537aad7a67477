// Package memprot implements the timing and traffic models of the three
// memory-protection schemes the paper evaluates (Sec. V-A):
//
//   - Unsecure: raw transfers, bandwidth + DRAM latency only.
//   - Baseline: counter-mode encryption with an SC-64 split-counter
//     integrity tree over the whole DRAM, counter cache + hash cache +
//     MAC cache (the conventional CPU-style protection of Fig. 1).
//   - TreeLess (TNPU): AES-XTS encryption + per-block versioned MACs,
//     MAC cache only; version numbers are fetched from the small fully
//     protected region (Sec. IV-C).
//
// Engines operate at 64-byte block granularity on a shared dram.Bus, so
// security-metadata traffic competes with tensor data for bandwidth — the
// effect that separates the schemes. All engines are deterministic and not
// safe for concurrent use (the simulator serializes block events).
package memprot

import (
	"fmt"

	"tnpu/internal/dram"
	"tnpu/internal/stats"
)

// Scheme selects a protection engine.
type Scheme int

const (
	// Unsecure applies no protection (the normalization baseline).
	Unsecure Scheme = iota
	// Baseline is the conventional tree-based protection.
	Baseline
	// TreeLess is the TNPU scheme.
	TreeLess
	// EncryptOnly models scalable SGX / Intel TME (Sec. II-B): AES-XTS
	// full-memory encryption with NO integrity protection — the
	// confidentiality-only lower bound TNPU is contrasted against. Not
	// part of the paper's three plotted schemes.
	EncryptOnly
)

// String names the scheme as in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case Unsecure:
		return "unsecure"
	case Baseline:
		return "baseline"
	case TreeLess:
		return "tnpu"
	case EncryptOnly:
		return "encrypt-only"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Engine is the per-block protection timing model. ReadBlock/WriteBlock
// return two times: busFree is when the block's data beat has cleared the
// bus (the DMA may issue its next block), dataAt is when the decrypted,
// verified data is available to the scratchpad (reads) or accepted by the
// write path (writes).
type Engine interface {
	Scheme() Scheme
	ReadBlock(ready, addr, version uint64) (busFree, dataAt uint64)
	WriteBlock(ready, addr, version uint64) (busFree, dataAt uint64)
	// VersionFetch models the software's version-table access in the
	// fully protected region before an mvin/mvout (one per instruction,
	// not per block): the 8-byte slot at slotAddr is read (mvin) or
	// updated (mvout). It returns when the version number is available.
	// Schemes without software versioning return ready unchanged.
	VersionFetch(ready, slotAddr uint64, write bool) uint64
	// Flush drains dirty metadata (end-of-run accounting).
	Flush(now uint64)
	Traffic() *stats.Traffic
	// CounterStats/HashStats/MACStats return cache statistics; engines
	// without a given cache return a zero-valued struct.
	CounterStats() *stats.CacheStats
	HashStats() *stats.CacheStats
	MACStats() *stats.CacheStats
}

// Config carries the protection parameters of Sec. V-A.
type Config struct {
	// Bus is the shared memory interface (may be shared among NPUs).
	Bus *dram.Bus
	// DRAMBytes is the size of the protected physical memory the baseline
	// tree covers ("the entire DRAM space", Sec. III-B).
	DRAMBytes uint64
	// FullyProtectedBytes is the SGX-PRM-like region holding security
	// metadata and version tables (128MB, Sec. IV-A).
	FullyProtectedBytes uint64

	// Cache capacities (bytes): 4KB counter, 4KB hash, 8KB MAC (Sec. V-A).
	CounterCacheBytes int
	HashCacheBytes    int
	MACCacheBytes     int
	// CacheWays is the associativity of all metadata caches.
	CacheWays int

	// Crypto latencies in cycles (Sec. V-A): OTP = 10 + 1 XOR for
	// counter mode; 13 for AES-XTS.
	OTPCycles uint64
	XORCycles uint64
	XTSCycles uint64
	// MACCycles is the MAC check/generate pipeline latency.
	MACCycles uint64

	// TreeArity is the counter-tree fan-out (64 = SC-64 default; 8 =
	// SGX-MEE-like). Ablation knob for the baseline engine.
	TreeArity uint64
	// WalkMSHRs is how many counter-tree walks the security engine can
	// have in flight. Dense streams (one miss per 4KB) overlap their
	// walks within this window; bursty fine-grained misses saturate it
	// and serialize — the behaviour behind sent/tf in Fig. 4.
	WalkMSHRs int
	// CounterPrefetch makes the baseline engine fetch the next counter
	// line on every miss (next-line prefetch): an ablation probing
	// whether simple prefetching could rescue the tree-based design for
	// streaming tensors.
	CounterPrefetch bool
	// MACSlotBytes is the per-block MAC size (8B default; trading
	// collision resistance against the 12.5% MAC traffic). Ablation knob.
	MACSlotBytes uint64
}

// DefaultConfig returns the paper's parameters over the given shared bus.
func DefaultConfig(bus *dram.Bus) Config {
	return Config{
		Bus:                 bus,
		DRAMBytes:           4 << 30,
		FullyProtectedBytes: 128 << 20,
		CounterCacheBytes:   4 << 10,
		HashCacheBytes:      4 << 10,
		MACCacheBytes:       8 << 10,
		CacheWays:           8,
		OTPCycles:           10,
		XORCycles:           1,
		XTSCycles:           13,
		MACCycles:           20,
		TreeArity:           64,
		WalkMSHRs:           2,
		MACSlotBytes:        8,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Bus == nil {
		return fmt.Errorf("memprot: nil bus")
	}
	if c.DRAMBytes == 0 || c.FullyProtectedBytes == 0 {
		return fmt.Errorf("memprot: zero memory sizes")
	}
	if c.CounterCacheBytes <= 0 || c.HashCacheBytes <= 0 || c.MACCacheBytes <= 0 || c.CacheWays <= 0 {
		return fmt.Errorf("memprot: non-positive cache parameters")
	}
	if c.TreeArity < 2 {
		return fmt.Errorf("memprot: tree arity %d too small", c.TreeArity)
	}
	if c.WalkMSHRs <= 0 {
		return fmt.Errorf("memprot: need at least one walk MSHR")
	}
	if c.MACSlotBytes == 0 || c.MACSlotBytes > dram.BlockBytes {
		return fmt.Errorf("memprot: MAC slot of %d bytes invalid", c.MACSlotBytes)
	}
	return nil
}

// New constructs the engine for a scheme.
func New(s Scheme, cfg Config) (Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch s {
	case Unsecure:
		return newUnsecure(cfg), nil
	case Baseline:
		return newBaseline(cfg), nil
	case TreeLess:
		return newTreeless(cfg), nil
	case EncryptOnly:
		return newEncryptOnly(cfg), nil
	}
	return nil, fmt.Errorf("memprot: unknown scheme %d", int(s))
}

// Schemes lists the paper's three plotted schemes in figure order.
func Schemes() []Scheme { return []Scheme{Unsecure, Baseline, TreeLess} }

// AllSchemes adds the encryption-only (scalable-SGX-like) bound.
func AllSchemes() []Scheme { return []Scheme{Unsecure, Baseline, TreeLess, EncryptOnly} }

var zeroCacheStats stats.CacheStats

// unsecure is the no-protection engine.
type unsecure struct {
	cfg     Config
	traffic stats.Traffic
	jr      jointRun //tnpu:canonskip per-call joint-run scratch, no state across calls
}

func newUnsecure(cfg Config) *unsecure { return &unsecure{cfg: cfg} }

func (u *unsecure) Scheme() Scheme { return Unsecure }

func (u *unsecure) ReadBlock(ready, addr, version uint64) (busFree, dataAt uint64) {
	u.traffic.AddRead(stats.Data, dram.BlockBytes)
	busFree = u.cfg.Bus.TransferAt(ready, addr, dram.BlockBytes)
	return busFree, busFree + u.cfg.Bus.Latency()
}

func (u *unsecure) WriteBlock(ready, addr, version uint64) (busFree, dataAt uint64) {
	u.traffic.AddWrite(stats.Data, dram.BlockBytes)
	busFree = u.cfg.Bus.TransferAt(ready, addr, dram.BlockBytes)
	return busFree, busFree
}

func (u *unsecure) VersionFetch(ready, slotAddr uint64, write bool) uint64 { return ready }
func (u *unsecure) Flush(now uint64)                                       {}
func (u *unsecure) Traffic() *stats.Traffic                                { return &u.traffic }
func (u *unsecure) CounterStats() *stats.CacheStats                        { return &zeroCacheStats }
func (u *unsecure) HashStats() *stats.CacheStats                           { return &zeroCacheStats }
func (u *unsecure) MACStats() *stats.CacheStats                            { return &zeroCacheStats }

// encryptOnly is the scalable-SGX-like engine: counter-less AES-XTS over
// the whole memory, no MACs, no freshness. Confidentiality against
// physical attacks, zero integrity — its cost is the XTS pipeline latency
// alone, which bounds how cheap any integrity-adding scheme could get.
type encryptOnly struct {
	cfg     Config
	traffic stats.Traffic
	jr      jointRun //tnpu:canonskip per-call joint-run scratch, no state across calls
}

func newEncryptOnly(cfg Config) *encryptOnly { return &encryptOnly{cfg: cfg} }

func (e *encryptOnly) Scheme() Scheme { return EncryptOnly }

func (e *encryptOnly) ReadBlock(ready, addr, version uint64) (busFree, dataAt uint64) {
	e.traffic.AddRead(stats.Data, dram.BlockBytes)
	busFree = e.cfg.Bus.TransferAt(ready, addr, dram.BlockBytes)
	return busFree, busFree + e.cfg.Bus.Latency() + e.cfg.XTSCycles
}

func (e *encryptOnly) WriteBlock(ready, addr, version uint64) (busFree, dataAt uint64) {
	e.traffic.AddWrite(stats.Data, dram.BlockBytes)
	busFree = e.cfg.Bus.TransferAt(ready, addr, dram.BlockBytes)
	return busFree, busFree
}

func (e *encryptOnly) VersionFetch(ready, slotAddr uint64, write bool) uint64 { return ready }
func (e *encryptOnly) Flush(now uint64)                                       {}
func (e *encryptOnly) Traffic() *stats.Traffic                                { return &e.traffic }
func (e *encryptOnly) CounterStats() *stats.CacheStats                        { return &zeroCacheStats }
func (e *encryptOnly) HashStats() *stats.CacheStats                           { return &zeroCacheStats }
func (e *encryptOnly) MACStats() *stats.CacheStats                            { return &zeroCacheStats }
