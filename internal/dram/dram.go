// Package dram models the off-chip memory interface as the paper does
// (Sec. V-A): a simple bandwidth-capped bus with a fixed access latency
// (100 cycles, after NeuMMU). The bus is the shared, serializing resource:
// every 64B beat — tensor data or security metadata — occupies it for
// bytes/bandwidth cycles, so metadata traffic directly steals bandwidth
// from tensor transfers. Multiple NPUs share one Bus, which yields the
// round-robin bandwidth sharing used in the scalability study (Sec. V-C).
package dram

import (
	"fmt"
	"math/bits"
)

// BlockBytes is the memory block (cache line) granularity used throughout
// the protection schemes: MACs, counters, and transfers are all managed in
// 64-byte units.
const BlockBytes = 64

// Config describes one memory interface.
type Config struct {
	// FreqHz is the clock the simulator counts cycles in (processor and
	// memory share a clock in the paper's Table II).
	FreqHz uint64
	// BandwidthBytesPerSec is the peak aggregate DRAM bandwidth.
	BandwidthBytesPerSec uint64
	// LatencyCycles is the fixed DRAM access latency applied to the first
	// beat of a transfer and to serialized metadata fetches.
	LatencyCycles uint64
	// Channels splits the bandwidth across independent channels with
	// block-interleaved addressing (Table II lists 4). The default (0/1)
	// models the aggregate as one bus — a good approximation for
	// streaming; >1 lets metadata fetches overlap data on other channels
	// and is exposed as an ablation.
	Channels int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.FreqHz == 0 || c.BandwidthBytesPerSec == 0 {
		return fmt.Errorf("dram: frequency and bandwidth must be positive, got %+v", c)
	}
	return nil
}

// CyclesPerByte returns the rational bus occupancy per byte (num/den).
func (c Config) CyclesPerByte() (num, den uint64) {
	g := gcd(c.FreqHz, c.BandwidthBytesPerSec)
	return c.FreqHz / g, c.BandwidthBytesPerSec / g
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Bus is a work-conserving memory bus. Callers present a ready time; the
// bus charges bytes at the configured bandwidth, serving at the earliest
// opportunity — including idle gaps left behind when a dependency chain
// (e.g. a serialized tree walk) arrived with a future ready time. The gap
// backfill models a memory controller whose request queue keeps the bus
// busy with other clients' requests during such stalls. Sub-cycle
// remainders are carried exactly so long streams are charged the true
// rational cost.
type Bus struct {
	latency uint64
	// aggNum/aggDen is the aggregate (whole-interface) cycles-per-byte
	// rational, before the bandwidth is split across channels.
	aggNum, aggDen uint64 //tnpu:canonskip derived from Config at construction, immutable
	chans          []channel
}

// channel is one independently scheduled slice of the bandwidth.
type channel struct {
	num, den   uint64
	busyUntil  uint64
	rem        uint64 // carried numerator remainder, < den
	bytesMoved uint64
	busyCycles uint64
	// gaps are idle [start,end) windows behind busyUntil, newest last,
	// bounded to keep Transfer O(1) amortized.
	gaps []gap
	// maxGapEnd is an upper bound on the end of every remembered gap
	// (never below the true maximum, so requests with ready >= maxGapEnd
	// can skip the gap scan: any such request starts at or after every
	// gap's end and cannot fit inside one).
	maxGapEnd uint64
	// wide has bit i set when gaps[i] is at least q64 cycles long: only
	// those can hold a block transfer (which costs q64 or q64+1 cycles),
	// so block requests scan just them, in list order.
	wide uint64 //tnpu:canonskip derived from gaps, rebuilt by RestoreCanon
	// q64/r64 split one block's tick count, BlockBytes*num = q64*den +
	// r64, so a block charge needs no division: r64 and the carried
	// remainder are both below den, so their sum carries at most once.
	q64 uint64 //tnpu:canonskip derived from num/den at construction, immutable
	r64 uint64 //tnpu:canonskip derived from num/den at construction, immutable
}

type gap struct{ start, end uint64 }

// maxGaps bounds the remembered idle windows; older gaps are forgotten
// (slightly pessimistic, never optimistic).
const maxGaps = 64

// wide holds one bit per remembered gap.
var _ [64 - maxGaps]struct{}

// NewBus constructs a bus from cfg. It panics on invalid configuration
// because configs are compile-time constants in this simulator.
func NewBus(cfg Config) *Bus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Channels
	if n < 1 {
		n = 1
	}
	num, den := cfg.CyclesPerByte()
	g := gcd(num*uint64(n), den)
	b := &Bus{latency: cfg.LatencyCycles, aggNum: num, aggDen: den, chans: make([]channel, n)}
	for i := range b.chans {
		// Each channel serves 1/n of the bandwidth: n x the cycles/byte.
		c := channel{num: num * uint64(n) / g, den: den / g}
		c.q64, c.r64 = BlockBytes*c.num/c.den, BlockBytes*c.num%c.den
		b.chans[i] = c
	}
	return b
}

// route maps a block address to its interleaved channel.
func (b *Bus) route(addr uint64) *channel {
	if len(b.chans) == 1 {
		return &b.chans[0]
	}
	return &b.chans[(addr/BlockBytes)%uint64(len(b.chans))]
}

// Latency returns the fixed DRAM access latency in cycles.
//
//tnpu:pure
func (b *Bus) Latency() uint64 { return b.latency }

// Transfer occupies the bus for bytes starting no earlier than ready, and
// returns the cycle at which the last byte has crossed the bus. It does NOT
// include DRAM access latency; callers add Latency() where an access is on
// a dependence chain (first beat of a read, serialized metadata fetch).
// Requests whose ready time precedes the bus horizon are backfilled into
// remembered idle gaps when they fit. Transfer serves from the channel
// owning address 0; multi-channel callers use TransferAt.
func (b *Bus) Transfer(ready, bytes uint64) (done uint64) {
	return b.chans[0].transfer(ready, bytes)
}

// TransferAt is the address-routed Transfer for multi-channel interfaces.
func (b *Bus) TransferAt(ready, addr, bytes uint64) (done uint64) {
	return b.route(addr).transfer(ready, bytes)
}

// ReadAt is the address-routed Read.
func (b *Bus) ReadAt(ready, addr, bytes uint64) (dataAt uint64) {
	return b.route(addr).transfer(ready, bytes) + b.latency
}

func (c *channel) transfer(ready, bytes uint64) (done uint64) {
	if bytes == 0 {
		// A zero-length transfer never occupies the bus: it completes at
		// ready without advancing the horizon, opening a phantom idle gap,
		// or disturbing the carried remainder.
		return ready
	}
	var cycles uint64
	if bytes == BlockBytes {
		cycles = c.q64
		c.rem += c.r64
		if c.rem >= c.den {
			c.rem -= c.den
			cycles++
		}
	} else {
		ticks := bytes*c.num + c.rem
		cycles = ticks / c.den
		c.rem = ticks % c.den
	}
	c.bytesMoved += bytes
	c.busyCycles += cycles

	// Try to serve inside an idle gap, the first that fits in list order.
	// Skipped outright when ready is past every gap's end — such a request
	// starts after every gap closes and cannot fit inside one (a zero-cycle
	// transfer can still land exactly at a gap's end, hence <=).
	if ready <= c.maxGapEnd {
		if bytes == BlockBytes {
			for m := c.wide; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				if start := max(ready, c.gaps[i].start); start+cycles <= c.gaps[i].end {
					return c.useGap(i, start, cycles)
				}
			}
		} else {
			for i := range c.gaps {
				if start := max(ready, c.gaps[i].start); start+cycles <= c.gaps[i].end {
					return c.useGap(i, start, cycles)
				}
			}
		}
	}

	start := ready
	if c.busyUntil > start {
		start = c.busyUntil
	} else if start > c.busyUntil {
		// Record the idle window we are skipping over.
		c.recordGap(c.busyUntil, start)
	}
	c.busyUntil = start + cycles
	return c.busyUntil
}

// useGap serves a cycles-long request starting at start inside gaps[i]
// (where it fits), trimming, splitting, or removing the gap, and returns
// the request's end.
func (c *channel) useGap(i int, start, cycles uint64) uint64 {
	g := &c.gaps[i]
	end := start + cycles
	switch {
	case start == g.start && end == g.end:
		c.gaps = append(c.gaps[:i], c.gaps[i+1:]...)
		c.wide = c.wide&(1<<uint(i)-1) | c.wide>>uint(i+1)<<uint(i)
		return end
	case start == g.start:
		g.start = end
	case end == g.end:
		g.end = start
	default:
		// Split: keep the earlier half here, append the later.
		later := gap{end, g.end}
		g.end = start
		if len(c.gaps) < maxGaps {
			c.gaps = append(c.gaps, later)
			c.markWide(len(c.gaps) - 1)
		}
	}
	c.markWide(i)
	return end
}

// markWide sets gaps[i]'s bit in wide from its current length.
func (c *channel) markWide(i int) {
	bit := uint64(1) << uint(i)
	if g := c.gaps[i]; g.end-g.start >= c.q64 {
		c.wide |= bit
	} else {
		c.wide &^= bit
	}
}

// recordGap remembers the idle window [start, end), evicting the oldest
// entry at capacity and maintaining the gap-end upper bound.
func (c *channel) recordGap(start, end uint64) {
	if len(c.gaps) == maxGaps {
		c.gaps = c.gaps[1:]
		c.wide >>= 1
	}
	c.gaps = append(c.gaps, gap{start, end})
	c.markWide(len(c.gaps) - 1)
	if end > c.maxGapEnd {
		c.maxGapEnd = end
	}
}

// Read models a latency-bound read: the bus is occupied as in Transfer and
// the completion time additionally includes the DRAM access latency, i.e.
// when the data is usable by dependent work.
func (b *Bus) Read(ready, bytes uint64) (dataAt uint64) {
	return b.Transfer(ready, bytes) + b.latency
}

// Now returns the bus's latest channel horizon.
//
//tnpu:pure
func (b *Bus) Now() uint64 {
	var max uint64
	for i := range b.chans {
		if b.chans[i].busyUntil > max {
			max = b.chans[i].busyUntil
		}
	}
	return max
}

// BytesMoved returns the cumulative bytes served across channels.
func (b *Bus) BytesMoved() uint64 {
	var sum uint64
	for i := range b.chans {
		sum += b.chans[i].bytesMoved
	}
	return sum
}

// BusyCycles returns cycles the channels spent transferring.
func (b *Bus) BusyCycles() uint64 {
	var sum uint64
	for i := range b.chans {
		sum += b.chans[i].busyCycles
	}
	return sum
}

// Channels returns the channel count.
//
//tnpu:pure
func (b *Bus) Channels() int { return len(b.chans) }

// Utilization returns busy/(horizon*channels), or 0 before any traffic.
func (b *Bus) Utilization() float64 {
	now := b.Now()
	if now == 0 {
		return 0
	}
	return float64(b.BusyCycles()) / (float64(now) * float64(len(b.chans)))
}

// CyclesForBytes returns the pure aggregate-bandwidth cost of moving
// bytes, rounded up, without touching bus state. It uses the whole
// interface's rate: on an n-channel bus each channel serves 1/n of the
// bandwidth, so quoting channel 0's per-channel rate would overstate the
// cost by a factor of n.
func (b *Bus) CyclesForBytes(bytes uint64) uint64 {
	return (bytes*b.aggNum + b.aggDen - 1) / b.aggDen
}

// WorstChannelCycles returns an upper bound on the bus cycles any one
// channel needs to move bytes, rounded up: the single-channel rate (n x
// the aggregate cycles/byte on an n-channel bus), as if every byte routed
// to the same channel. ok=false when the multiplication would overflow;
// callers treating this as a safety bound must then refuse the shortcut.
//
//tnpu:noalloc //tnpu:pure
func (b *Bus) WorstChannelCycles(bytes uint64) (cycles uint64, ok bool) {
	num, den := b.chans[0].num, b.chans[0].den
	if num != 0 && bytes > (1<<62)/num {
		return 0, false
	}
	return (bytes*num + den - 1) / den, true
}
