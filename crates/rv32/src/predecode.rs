//! The predecode cache the superblock and JIT tiers interpret cold code
//! from.
//!
//! The slow path ([`crate::cpu::Cpu::step`]) re-fetches, re-decompresses
//! and re-decodes the raw instruction word on every retired instruction,
//! so tight simulated loops spend most of their host time in `decode`.
//! The fast path instead translates code *once*: on the first fetch into a
//! 256-byte line, every 16-bit slot of that line is decoded into a cached
//! [`Slot`] (the [`Inst`], the raw 32-bit word, and the instruction
//! length). Subsequent fetches are a two-index table lookup.
//!
//! Design points, chosen so the fast path is observably identical to the
//! slow path (same architectural state, same modelled cycles, same traps):
//!
//! * **Direct-mapped by PC, tag-free.** The cache has one line slot per
//!   256-byte RAM line, so there are no conflicts and no tags to check on
//!   the hot path.
//! * **Every halfword offset gets its own slot.** RISC-V code can start an
//!   instruction at any even address, and 16- and 32-bit encodings
//!   overlap; decoding each 2-byte offset independently sidesteps all
//!   alignment questions. A 32-bit instruction whose bytes straddle a line
//!   boundary is cached in the line containing its *first* byte.
//! * **One fetch, decode errors cached, not raised.** A line fill runs
//!   the core's one instruction fetch (the function
//!   [`crate::cpu::Cpu::step`] calls) at every halfword of the line, so
//!   each slot holds exactly what the slow path would fetch there.
//!   Predecoding a line may run the decoder over data or padding that
//!   never executes; such slots store the fetch's [`Trap`], which fires
//!   only if the PC actually reaches the slot.
//! * **Stores invalidate.** A store to byte `a` can rewrite any
//!   instruction starting in `[a - 3, a + size)` (a 32-bit instruction
//!   reaches up to 3 bytes back across a line boundary), so the lines
//!   covering that range are dropped and will be re-decoded on the next
//!   fetch. Self-modifying code therefore behaves exactly as on the slow
//!   path. Host-side writes ([`crate::cpu::Cpu::write_bytes`] /
//!   [`crate::cpu::Cpu::load_words`]) invalidate the same way.

use crate::cpu::{fetch, Trap};
use crate::inst::Inst;

/// Bytes of code covered by one predecode line.
pub const LINE_BYTES: u32 = 256;
const LINE_SHIFT: u32 = LINE_BYTES.trailing_zeros();
/// 16-bit slots per line.
pub const SLOTS_PER_LINE: usize = (LINE_BYTES / 2) as usize;

/// One predecoded 16-bit slot.
#[derive(Debug, Clone, Copy)]
pub enum Slot {
    /// The slot decodes to an instruction: the decoded form, the raw
    /// (decompressed) 32-bit word, and the fetch length in bytes (2 or 4).
    Inst {
        /// Decoded instruction.
        inst: Inst,
        /// Raw 32-bit word (after decompression for 16-bit encodings) —
        /// needed to reproduce the slow path's trap values exactly.
        word: u32,
        /// Encoded length in bytes: 2 (compressed) or 4.
        len: u8,
    },
    /// Fetching or decoding at this PC traps; raised only when executed.
    Trap(Trap),
    /// The covering line has not been decoded (or was invalidated): the
    /// sentinel the hot path keys its refill decision on, so a lookup is
    /// one slot load instead of a bitmap probe plus a slot load.
    Empty,
}

/// The direct-mapped predecode table (see module docs).
///
/// Storage is a single flat `Vec<Slot>` — one 16-byte slot per halfword of
/// RAM — so the hot-path lookup is a single indexed slot load with no
/// pointer chasing; undecoded lines hold [`Slot::Empty`] sentinels. The
/// memory cost is 8× the simulated RAM, paid once per `Cpu`. The `filled`
/// bitmap mirrors line validity for bookkeeping (invalidation scans,
/// stats) but is never consulted on the hot path.
#[derive(Debug)]
pub struct PredecodeCache {
    /// One slot per halfword of covered RAM (line-granular validity).
    slots: Vec<Slot>,
    /// One bit per line: set iff the line's slots are decoded and current.
    filled: Vec<u64>,
    /// Per-line generation counter, bumped every time a *filled* line is
    /// dropped. Consumers that cache derived artifacts keyed on predecoded
    /// code (the superblock engine) record `(line, gen)` pairs at build
    /// time and treat any mismatch as "the code under me may have
    /// changed". Refills do not bump the counter, so a generation value
    /// never aliases back to a pair recorded before the invalidation.
    gens: Vec<u64>,
    /// Number of lines covered.
    line_count: usize,
    /// Conservative inclusive bounds of the filled-line range (`lo > hi`
    /// when nothing is filled). Lets [`PredecodeCache::invalidate`] — on
    /// the hot path of every simulated store — skip the scan for data
    /// stores that cannot touch predecoded code. Invalidation does not
    /// shrink the bounds, so they may over-approximate; that only costs a
    /// redundant scan, never a stale slot.
    filled_lo: usize,
    filled_hi: usize,
}

impl PredecodeCache {
    /// A cache covering `ram_bytes` of RAM (one line slot per 256 bytes).
    pub fn new(ram_bytes: usize) -> Self {
        let line_count = ram_bytes.div_ceil(LINE_BYTES as usize);
        Self {
            slots: vec![Slot::Empty; line_count * SLOTS_PER_LINE],
            filled: vec![0u64; line_count.div_ceil(64)],
            gens: vec![0u64; line_count],
            line_count,
            filled_lo: usize::MAX,
            filled_hi: 0,
        }
    }

    /// Read-only hot-path probe: the slot for `pc` (which must be even).
    /// Returns [`Slot::Empty`] both for undecoded lines and for PCs beyond
    /// RAM coverage — [`PredecodeCache::fill`] resolves either.
    /// Deliberately takes no RAM reference so the dispatch loop touches
    /// nothing but the slot table on a hit.
    #[inline]
    pub fn slot_at(&self, pc: u32) -> Slot {
        debug_assert_eq!(pc & 1, 0, "predecode slots are halfword-aligned");
        match self.slots.get((pc >> 1) as usize) {
            Some(&slot) => slot,
            None => Slot::Empty,
        }
    }

    /// Look up the slot for `pc` (which must be even), predecoding the
    /// containing line on a miss. Never returns [`Slot::Empty`].
    #[inline]
    pub fn lookup(&mut self, ram: &[u8], pc: u32) -> Slot {
        match self.slot_at(pc) {
            Slot::Empty => self.fill(ram, pc),
            slot => slot,
        }
    }

    /// Decode the line covering `pc` into the table and return `pc`'s
    /// slot. A `pc` beyond RAM coverage caches nothing and gets the fetch
    /// fault. Kept out of line so hit paths stay tiny.
    #[cold]
    pub fn fill(&mut self, ram: &[u8], pc: u32) -> Slot {
        let line_index = (pc >> LINE_SHIFT) as usize;
        if line_index >= self.line_count {
            return fetch_slot(ram, pc);
        }
        let base = line_index * SLOTS_PER_LINE;
        let pc_base = (line_index as u32) << LINE_SHIFT;
        for i in 0..SLOTS_PER_LINE {
            self.slots[base + i] = fetch_slot(ram, pc_base + 2 * i as u32);
        }
        self.filled[line_index >> 6] |= 1 << (line_index & 63);
        self.filled_lo = self.filled_lo.min(line_index);
        self.filled_hi = self.filled_hi.max(line_index);
        self.slots[(pc >> 1) as usize]
    }

    /// Drop every line that could cache an instruction overlapping the
    /// byte range `[addr, addr + size)`. A 32-bit instruction starting up
    /// to 3 bytes before `addr` also overlaps, and it is cached in the
    /// line of its first byte, so the window extends 3 bytes back.
    /// Invalidation rewrites the line's slots to [`Slot::Empty`].
    ///
    /// Returns `true` when at least one generation counter moved — the
    /// signal the JIT chain registry uses to sever links into now-stale
    /// blocks. A window that misses every filled line cannot have staled
    /// anything, so `false` means "nothing to sweep".
    #[inline]
    pub fn invalidate(&mut self, addr: u32, size: usize) -> bool {
        let first = (addr.saturating_sub(3) >> LINE_SHIFT) as usize;
        let last = ((addr as u64 + size.max(1) as u64 - 1) >> LINE_SHIFT) as usize;
        // Data stores rarely overlap predecoded code; skip the scan when
        // the store window misses the filled range entirely.
        if first > self.filled_hi || last < self.filled_lo {
            return false;
        }
        let first = first.max(self.filled_lo);
        let end = self.line_count.min(last + 1).min(self.filled_hi + 1);
        let mut bumped = false;
        for line in first..end {
            if (self.filled[line >> 6] >> (line & 63)) & 1 == 1 {
                self.filled[line >> 6] &= !(1 << (line & 63));
                self.slots[line * SLOTS_PER_LINE..(line + 1) * SLOTS_PER_LINE].fill(Slot::Empty);
                self.gens[line] += 1;
                bumped = true;
            }
        }
        bumped
    }

    /// Drop everything (used when the host rewrites large RAM regions).
    /// Returns `true` when any generation counter moved, exactly as
    /// [`Self::invalidate`] does.
    pub fn invalidate_all(&mut self) -> bool {
        let mut bumped = false;
        for line in 0..self.line_count {
            if (self.filled[line >> 6] >> (line & 63)) & 1 == 1 {
                self.filled[line >> 6] &= !(1 << (line & 63));
                self.slots[line * SLOTS_PER_LINE..(line + 1) * SLOTS_PER_LINE].fill(Slot::Empty);
                self.gens[line] += 1;
                bumped = true;
            }
        }
        self.filled_lo = usize::MAX;
        self.filled_hi = 0;
        bumped
    }

    /// The invalidation generation of `line` (see the `gens` field). Lines
    /// beyond coverage report generation 0, which is also what a block
    /// compiled over them would have recorded — out-of-range code never
    /// goes stale, it simply faults when reached.
    #[inline]
    pub fn line_gen(&self, line: usize) -> u64 {
        self.gens.get(line).copied().unwrap_or(0)
    }

    /// Number of lines currently predecoded.
    pub fn lines_filled(&self) -> usize {
        self.filled.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether `line` is currently filled.
    #[inline]
    pub(crate) fn line_is_filled(&self, line: usize) -> bool {
        (self.filled[line >> 6] >> (line & 63)) & 1 == 1
    }

    /// Capture the filled lines, all generation counters and the filled
    /// range (see [`crate::warm::WarmImage`]). Sparse in
    /// the filled lines — an idle cache snapshots to almost nothing.
    pub(crate) fn snapshot(&self) -> PredecodeImage {
        let mut lines = Vec::with_capacity(self.lines_filled());
        if self.filled_lo <= self.filled_hi {
            for line in self.filled_lo..=self.filled_hi.min(self.line_count - 1) {
                if self.line_is_filled(line) {
                    let base = line * SLOTS_PER_LINE;
                    lines.push((line as u32, self.slots[base..base + SLOTS_PER_LINE].into()));
                }
            }
        }
        PredecodeImage {
            line_count: self.line_count,
            lines,
            gens: self.gens.clone().into_boxed_slice(),
            filled_lo: self.filled_lo,
            filled_hi: self.filled_hi,
        }
    }

    /// Restore a snapshot taken by [`PredecodeCache::snapshot`]. The
    /// generation counters rewind with everything else; that is sound
    /// because the caller ([`crate::cpu::Cpu::restore`]) replaces RAM, the
    /// slot table and every superblock slot in the same operation, so no
    /// stale derived artifact can survive to observe a rewound generation.
    pub(crate) fn restore(&mut self, image: &PredecodeImage) {
        if self.line_count != image.line_count {
            *self = Self::new(image.line_count * LINE_BYTES as usize);
        } else {
            // Sparse-clear only the currently-filled lines, then zero the
            // bitmap: cheaper than rewriting the whole slot table.
            for (w, word) in self.filled.iter_mut().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let line = (w << 6) + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let base = line * SLOTS_PER_LINE;
                    self.slots[base..base + SLOTS_PER_LINE].fill(Slot::Empty);
                }
                *word = 0;
            }
        }
        for (line, slots) in &image.lines {
            let line = *line as usize;
            let base = line * SLOTS_PER_LINE;
            self.slots[base..base + SLOTS_PER_LINE].copy_from_slice(slots);
            self.filled[line >> 6] |= 1 << (line & 63);
        }
        self.gens.copy_from_slice(&image.gens);
        self.filled_lo = image.filled_lo;
        self.filled_hi = image.filled_hi;
    }
}

/// A point-in-time copy of a [`PredecodeCache`]'s decoded state: the
/// filled lines (sparse), every per-line generation counter, and the
/// filled range. Part of [`crate::warm::WarmImage`].
#[derive(Debug, Clone)]
pub(crate) struct PredecodeImage {
    line_count: usize,
    /// `(line_index, that line's slots)` for each filled line.
    lines: Vec<(u32, Box<[Slot]>)>,
    gens: Box<[u64]>,
    filled_lo: usize,
    filled_hi: usize,
}

/// The slot for `pc`: what [`fetch`] reads there, its trap included.
fn fetch_slot(ram: &[u8], pc: u32) -> Slot {
    match fetch(ram, pc) {
        Ok((inst, word, len)) => Slot::Inst { inst, word, len },
        Err(trap) => Slot::Trap(trap),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ram_with(words: &[u32]) -> Vec<u8> {
        let mut ram = vec![0u8; 1 << 12];
        for (i, w) in words.iter().enumerate() {
            ram[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        ram
    }

    #[test]
    fn lookup_fills_once_and_caches() {
        // addi x1, x0, 5 encodes as 0x00500093.
        let ram = ram_with(&[0x0050_0093]);
        let mut cache = PredecodeCache::new(ram.len());
        assert!(matches!(cache.lookup(&ram, 0), Slot::Inst { len: 4, .. }));
        assert!(
            matches!(cache.slot_at(0), Slot::Inst { .. }),
            "second lookup hits the cached line"
        );
        assert_eq!(cache.lines_filled(), 1);
    }

    #[test]
    fn decode_errors_are_cached_not_raised() {
        let ram = ram_with(&[0xffff_ffff]);
        let mut cache = PredecodeCache::new(ram.len());
        match cache.lookup(&ram, 0) {
            Slot::Trap(Trap::IllegalInstruction { pc: 0, word }) => {
                assert_eq!(word, 0xffff_ffff);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn out_of_range_pc_faults_and_caches_nothing() {
        let ram = ram_with(&[]);
        let mut cache = PredecodeCache::new(ram.len());
        let pc = 1 << 20;
        match cache.lookup(&ram, pc) {
            Slot::Trap(trap) => assert_eq!(trap, Trap::MemoryFault { pc, addr: pc }),
            other => panic!("{other:?}"),
        }
        assert_eq!(cache.lines_filled(), 0);
    }

    #[test]
    fn invalidation_reaches_back_across_line_boundaries() {
        let ram = ram_with(&[0x0050_0093; 256]);
        let mut cache = PredecodeCache::new(ram.len());
        // Fill lines 0 and 1.
        cache.lookup(&ram, 0);
        cache.lookup(&ram, LINE_BYTES);
        assert_eq!(cache.lines_filled(), 2);
        // A store 2 bytes into line 1 can rewrite the tail of a 32-bit
        // instruction cached in line 0: both lines must drop.
        cache.invalidate(LINE_BYTES + 2, 1);
        assert_eq!(cache.lines_filled(), 0);
        assert_eq!((cache.line_gen(0), cache.line_gen(1)), (1, 1));
    }

    #[test]
    fn invalidation_is_scoped() {
        let ram = ram_with(&[0x0050_0093; 512]);
        let mut cache = PredecodeCache::new(ram.len());
        cache.lookup(&ram, 0);
        cache.lookup(&ram, 4 * LINE_BYTES);
        cache.invalidate(0, 4);
        assert_eq!(cache.lines_filled(), 1, "distant line survives");
        cache.invalidate_all();
        assert_eq!(cache.lines_filled(), 0);
    }

    #[test]
    fn snapshot_restore_round_trips_lines_and_gens() {
        let ram = ram_with(&[0x0050_0093; 512]);
        let mut cache = PredecodeCache::new(ram.len());
        cache.lookup(&ram, 0);
        cache.lookup(&ram, 4 * LINE_BYTES);
        cache.invalidate(0, 1); // bump line 0's gen, drop it
        cache.lookup(&ram, 0); // refill
        let image = cache.snapshot();
        assert_eq!(image.lines.len(), 2);

        // Diverge: drop a line, fill a third, then restore.
        cache.invalidate(4 * LINE_BYTES, 1);
        cache.lookup(&ram, 8 * LINE_BYTES);
        let mut other = PredecodeCache::new(ram.len());
        other.restore(&image);
        cache.restore(&image);
        assert_eq!(cache.lines_filled(), 2);
        assert_eq!(other.lines_filled(), 2);
        assert_eq!(cache.line_gen(0), 1, "generation restored, not reset");
        assert_eq!(other.line_gen(0), 1);
        assert!(matches!(cache.slot_at(0), Slot::Inst { .. }));
        assert!(
            matches!(cache.slot_at(8 * LINE_BYTES), Slot::Empty),
            "post-snapshot fill rolled back"
        );
    }

    #[test]
    fn end_of_ram_slots_trap_like_the_slow_path() {
        let ram = ram_with(&[0x0050_0093]);
        let mut cache = PredecodeCache::new(ram.len());
        let last = ram.len() as u32 - 2;
        // A 32-bit encoding whose tail would run off RAM: zeros decode as
        // a (non-compressed-looking) halfword, so craft one explicitly.
        let mut ram2 = ram.clone();
        let a = last as usize;
        ram2[a] = 0x03; // low bits 11 → 32-bit encoding, but only 2 bytes left
        ram2[a + 1] = 0x00;
        match cache.lookup(&ram2, last) {
            Slot::Trap(Trap::MemoryFault { pc, addr }) => {
                assert_eq!((pc, addr), (last, last));
            }
            other => panic!("{other:?}"),
        }
    }
}
