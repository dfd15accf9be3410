//! Flat, cache-friendly encoding of names: the production representation.
//!
//! [`PackedName`] stores the canonical binary trie of a name (the paper's
//! §4/§6 encoding of an antichain) as a **preorder array of 2-bit node
//! tags** (`Empty` / `Elem` / `Node`) packed four to a byte, held inline for
//! up to [`INLINE_TAGS`] nodes and spilling to the heap beyond. Where a
//! boxed trie chases two pointers per interior node and allocates on every
//! construction, the packed form is a handful of contiguous bytes:
//!
//! * `leq`, `join`, `append`, `contains` and `reduce_pair` are **iterative**
//!   — explicit cursors and small stacks, no recursion, and no per-node
//!   allocation (a single output buffer per constructed value);
//! * `string_count` and `bit_size` are **cached** and O(1);
//! * `node_count` is the tag count, O(1);
//! * the wire encodings of [`codec`](crate::codec) map 1:1 onto the tag
//!   array (`Empty ↦ 0`, `Elem ↦ 10`, `Node ↦ 11` for
//!   [`BitTrieCodec`](crate::BitTrieCodec), the array itself for
//!   [`VarintCodec`](crate::VarintCodec)), so encode/decode are single
//!   passes.
//!
//! The representation is proptest-equivalent to [`Name`] (see
//! `tests/repr_equivalence.rs`) and slots into the stamp machinery through
//! [`NameLike`](crate::NameLike) as [`VersionStamp`](crate::VersionStamp) /
//! [`VersionStampMechanism`](crate::VersionStampMechanism).
//!
//! # Two orders: names and clocks
//!
//! [`PackedName::leq`], [`join`](PackedName::join) and
//! [`relation`](PackedName::relation) are Definition 4.1's order on
//! **names**: `n₁ ⊑ n₂` when every string of `n₁` is a *prefix* of one in
//! `n₂`. The paper's stamps and the fork/join/update mechanism use it.
//!
//! A store **clock** is something else: the set of dots a version has
//! seen, each dot a string whose whole subtree it spends. Its order is
//! region inclusion, the *cover order*: `a ≤ b` when every string of `a`
//! *has* a prefix in `b` ([`PackedName::cover_leq`],
//! [`cover_relation`](PackedName::cover_relation),
//! [`cover_join`](PackedName::cover_join),
//! [`cover_join_many`](PackedName::cover_join_many)). Under it `{ε}` is the
//! top and `{}` the bottom, and two sibling dots `s·0`, `s·1` merge into
//! `s`; Definition 4.1 would rank that merged `{s}` *below* `{s·0}`. A
//! clock is kept cover-canonical ([`PackedName::is_cover_canonical`]), so
//! equal clocks are byte-equal. For clocks whose dots are disjoint and
//! never merged, the two orders agree. [`PackedName::mint_dot`] spends dots
//! so that one writer's dots merge.
//!
//! # Examples
//!
//! ```
//! use vstamp_core::{Name, PackedName};
//!
//! let name: Name = "{00, 011, 1}".parse()?;
//! let packed = PackedName::from_name(&name);
//! assert_eq!(packed.to_name(), name);
//! assert_eq!(packed.string_count(), 3);
//! assert_eq!(packed.bit_size(), 2 + 3 + 1);
//! # Ok::<(), vstamp_core::ParseNameError>(())
//! ```

use core::fmt;
use core::str::FromStr;

use crate::bitstring::{Bit, BitString};
use crate::name::{Name, ParseNameError};
use crate::relation::Relation;

/// Number of node tags the inline buffer holds before spilling to the heap.
pub const INLINE_TAGS: usize = INLINE_BYTES * TAGS_PER_BYTE;

const INLINE_BYTES: usize = 16;
const TAGS_PER_BYTE: usize = 4;

/// Node tag: no element anywhere in this subtree.
const EMPTY: u8 = 0b00;
/// Node tag: the path from the root to this node is an element.
const ELEM: u8 = 0b01;
/// Node tag: interior node; its two children follow in preorder.
const NODE: u8 = 0b10;

/// Upper bound on pooled heap buffers kept per thread, and on the size of
/// a buffer worth keeping (hoarding a few giant joins would pin memory for
/// the rest of the thread's life).
const POOL_LIMIT: usize = 32;
const POOL_BYTE_CAP: usize = 1 << 16;

thread_local! {
    /// Arena pool of spilled tag buffers: every heap-backed [`TagVec`]
    /// returns its allocation here on drop and every spilling constructor
    /// draws from it, so after warm-up the `join`/`append`/`cover_join_many`
    /// element hot path allocates nothing even for names past
    /// [`INLINE_TAGS`].
    static TAG_BUF_POOL: core::cell::RefCell<Vec<Vec<u8>>> =
        const { core::cell::RefCell::new(Vec::new()) };
}

/// A recycled (or fresh) byte buffer with at least `bytes` of capacity.
fn pooled_buf(bytes: usize) -> Vec<u8> {
    TAG_BUF_POOL.try_with(|pool| pool.borrow_mut().pop()).ok().flatten().map_or_else(
        || Vec::with_capacity(bytes),
        |mut buf| {
            buf.clear();
            if buf.capacity() < bytes {
                buf.reserve(bytes - buf.len());
            }
            buf
        },
    )
}

/// Returns a heap buffer to the thread pool (bounded; `try_with` so drops
/// during thread teardown degrade to a plain deallocation).
fn recycle_buf(mut buf: Vec<u8>) {
    if buf.capacity() == 0 || buf.capacity() > POOL_BYTE_CAP {
        return;
    }
    let _ = TAG_BUF_POOL.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < POOL_LIMIT {
            buf.clear();
            pool.push(buf);
        }
    });
}

/// Growable 2-bit tag array with a 16-byte (64-tag) inline buffer.
///
/// Invariant: the unused bits of the last byte are always zero (tags are
/// appended, and [`TagVec::truncate`] clears what it drops), so
/// equality/hashing can compare raw bytes.
///
/// Heap-spilled buffers are arena-pooled per thread ([`TAG_BUF_POOL`]):
/// `Drop` recycles them and every spilling path (`with_tag_capacity`, the
/// mid-push spill, `Clone`) draws from the pool first.
struct TagVec {
    len: u32,
    inline: [u8; INLINE_BYTES],
    heap: Vec<u8>,
}

impl TagVec {
    fn new() -> Self {
        TagVec { len: 0, inline: [0; INLINE_BYTES], heap: Vec::new() }
    }

    fn with_tag_capacity(tags: usize) -> Self {
        let mut v = TagVec::new();
        if tags > INLINE_TAGS {
            v.heap = pooled_buf(tags.div_ceil(TAGS_PER_BYTE));
        }
        v
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn byte_len(&self) -> usize {
        self.len().div_ceil(TAGS_PER_BYTE)
    }

    fn bytes(&self) -> &[u8] {
        if self.heap.is_empty() {
            &self.inline[..self.byte_len()]
        } else {
            &self.heap[..self.byte_len()]
        }
    }

    #[inline]
    fn get(&self, index: usize) -> u8 {
        debug_assert!(index < self.len());
        let byte = if self.heap.is_empty() {
            self.inline[index / TAGS_PER_BYTE]
        } else {
            self.heap[index / TAGS_PER_BYTE]
        };
        (byte >> ((index % TAGS_PER_BYTE) * 2)) & 0b11
    }

    fn view(&self) -> TagsView<'_> {
        TagsView {
            bytes: if self.heap.is_empty() { &self.inline } else { &self.heap },
            len: self.len(),
        }
    }

    fn push(&mut self, tag: u8) {
        debug_assert!(tag <= NODE);
        let index = self.len();
        let (byte, shift) = (index / TAGS_PER_BYTE, (index % TAGS_PER_BYTE) * 2);
        if self.heap.is_empty() {
            if byte < INLINE_BYTES {
                self.inline[byte] |= tag << shift;
                self.len += 1;
                return;
            }
            // Spill: move the inline bytes to the heap and keep appending.
            self.spill();
        }
        if byte == self.heap.len() {
            self.heap.push(0);
        }
        self.heap[byte] |= tag << shift;
        self.len += 1;
    }

    /// Drops every tag from `len` on, zeroing the freed lanes. A heap
    /// buffer keeps at least one byte, so it never reads as inline; after
    /// `truncate(0)` the next append must be a `push` (the sibling merge's
    /// only use of it).
    fn truncate(&mut self, len: usize) {
        debug_assert!(len <= self.len());
        let (old, keep) = (self.byte_len(), len.div_ceil(TAGS_PER_BYTE));
        let bytes: &mut [u8] = if self.heap.is_empty() { &mut self.inline } else { &mut self.heap };
        if len % TAGS_PER_BYTE != 0 {
            bytes[len / TAGS_PER_BYTE] &= (1u8 << ((len % TAGS_PER_BYTE) * 2)) - 1;
        }
        bytes[keep..old].fill(0);
        if !self.heap.is_empty() {
            self.heap.truncate(keep.max(1));
        }
        self.len = len as u32;
    }

    /// Appends the tag range `[start, end)` of `src` — the bulk-copy fast
    /// path of `join`. Tags are moved a byte (four tags) at a time with a
    /// shift-merge for misaligned copies, instead of one `push` per tag.
    fn extend_tags(&mut self, src: TagsView<'_>, mut start: usize, end: usize) {
        // Scalar until the destination is byte-aligned.
        while start < end && self.len() % TAGS_PER_BYTE != 0 {
            self.push(src.tag(start));
            start += 1;
        }
        let full_bytes = (end - start) / TAGS_PER_BYTE;
        if full_bytes > 0 {
            let shift = (start % TAGS_PER_BYTE) * 2;
            let src_byte = start / TAGS_PER_BYTE;
            for k in 0..full_bytes {
                let lo = src.bytes[src_byte + k] >> shift;
                let hi = if shift == 0 {
                    0
                } else {
                    src.bytes.get(src_byte + k + 1).copied().unwrap_or(0) << (8 - shift)
                };
                self.push_full_byte(lo | hi);
            }
            start += full_bytes * TAGS_PER_BYTE;
        }
        while start < end {
            self.push(src.tag(start));
            start += 1;
        }
    }

    /// Appends four tags given as one packed byte; the destination must be
    /// byte-aligned.
    fn push_full_byte(&mut self, byte: u8) {
        debug_assert_eq!(self.len() % TAGS_PER_BYTE, 0);
        let index = self.byte_len();
        if self.heap.is_empty() {
            if index < INLINE_BYTES {
                self.inline[index] = byte;
                self.len += TAGS_PER_BYTE as u32;
                return;
            }
            self.spill();
        }
        self.heap.push(byte);
        self.len += TAGS_PER_BYTE as u32;
    }

    /// Moves the inline bytes onto the heap buffer, drawing a pooled
    /// allocation when none was reserved up front.
    fn spill(&mut self) {
        if self.heap.capacity() == 0 {
            self.heap = pooled_buf(2 * INLINE_BYTES);
        }
        self.heap.extend_from_slice(&self.inline);
    }
}

impl Clone for TagVec {
    fn clone(&self) -> Self {
        let heap = if self.heap.is_empty() {
            Vec::new()
        } else {
            let mut buf = pooled_buf(self.heap.len());
            buf.extend_from_slice(&self.heap);
            buf
        };
        TagVec { len: self.len, inline: self.inline, heap }
    }
}

impl Drop for TagVec {
    fn drop(&mut self) {
        if self.heap.capacity() > 0 {
            recycle_buf(core::mem::take(&mut self.heap));
        }
    }
}

/// Per-byte traversal tables: a byte holds four 2-bit tags; walking them in
/// preorder changes the open-subtree count by +1 per `Node` and −1 per
/// leaf. `DELTA` is the net change over the byte, `MIN_PREFIX` the lowest
/// intermediate value — together they let the skip loops consume four tags
/// per step instead of one.
const fn traversal_tables() -> ([i8; 256], [i8; 256]) {
    let mut delta = [0i8; 256];
    let mut min_prefix = [0i8; 256];
    let mut byte = 0usize;
    while byte < 256 {
        let mut sum = 0i8;
        let mut min = 0i8;
        let mut slot = 0usize;
        while slot < 4 {
            let tag = ((byte >> (slot * 2)) & 0b11) as u8;
            sum += if tag == NODE { 1 } else { -1 };
            if sum < min {
                min = sum;
            }
            slot += 1;
        }
        delta[byte] = sum;
        min_prefix[byte] = min;
        byte += 1;
    }
    (delta, min_prefix)
}

static TRAVERSAL: ([i8; 256], [i8; 256]) = traversal_tables();

/// Mask selecting the low bit of every 2-bit tag lane in a `u64` word
/// (eight bytes = 32 tags). The SWAR fast paths classify all 32 lanes at
/// once: a lane holds `Node` (`0b10`) iff its high bit is set and its low
/// bit clear, so `(v >> 1) & !v & LANE_LO` has one bit per `Node` lane and
/// `count_ones` is the node count of the word.
const LANE_LO: u64 = 0x5555_5555_5555_5555;

/// Reads eight bytes of a tag array as one little-endian word.
#[inline]
fn tag_word(bytes: &[u8], byte_index: usize) -> u64 {
    u64::from_le_bytes(bytes[byte_index..byte_index + 8].try_into().expect("eight bytes"))
}

/// Reads up to eight bytes of a tag array as one little-endian word,
/// zero-padding past the end — padding lanes decode as `Empty`, which the
/// block loops treat as inert. This is what lets the SWAR paths run all
/// the way into the byte tail instead of dropping to scalar for the last
/// (up to 31) tags.
#[inline]
fn tag_word_padded(bytes: &[u8], byte_index: usize) -> u64 {
    if byte_index + 8 <= bytes.len() {
        return tag_word(bytes, byte_index);
    }
    let mut buf = [0u8; 8];
    let available = bytes.len().saturating_sub(byte_index);
    buf[..available].copy_from_slice(&bytes[byte_index..]);
    u64::from_le_bytes(buf)
}

/// [`LANE_LO`] restricted to the first `lanes` tag lanes (1..=32).
#[inline]
fn lane_mask(lanes: usize) -> u64 {
    debug_assert!((1..=32).contains(&lanes));
    if lanes == 32 {
        LANE_LO
    } else {
        LANE_LO & ((1u64 << (2 * lanes)) - 1)
    }
}

/// Borrowed view of a tag array: the inline/heap branch is resolved once
/// per operation instead of once per tag access, which matters in the
/// `leq`/`join` scan loops.
#[derive(Clone, Copy)]
struct TagsView<'a> {
    bytes: &'a [u8],
    len: usize,
}

impl TagsView<'_> {
    #[inline]
    fn tag(&self, index: usize) -> u8 {
        debug_assert!(index < self.len);
        (self.bytes[index >> 2] >> ((index & 3) << 1)) & 0b11
    }

    /// Index one past the end of the subtree rooted at `start`.
    ///
    /// Scalar-steps to the next byte boundary, consumes whole `u64` words
    /// (32 tags at a time) with a SWAR popcount while the subtree provably
    /// cannot close inside them, then whole bytes through the [`TRAVERSAL`]
    /// tables, dropping back to scalar only for the byte in which the
    /// subtree closes.
    fn subtree_end(&self, start: usize) -> usize {
        let (delta, min_prefix) = (&TRAVERSAL.0, &TRAVERSAL.1);
        let mut i = start;
        let mut pending = 1i32;
        while pending > 0 {
            if i & 3 == 0 {
                let mut byte_index = i >> 2;
                // u64 SWAR: a word of 32 tags lowers the open-subtree count
                // by at most its leaf count (32 − nodes), so while `pending`
                // exceeds that, the whole word can be skipped. Padding lanes
                // past the real tags read as `Empty` (leaves) and only make
                // the bound more conservative.
                while byte_index + 8 <= self.bytes.len() {
                    let word = tag_word(self.bytes, byte_index);
                    let nodes = ((word >> 1) & !word & LANE_LO).count_ones() as i32;
                    if pending <= 32 - nodes {
                        break;
                    }
                    pending += 2 * nodes - 32;
                    byte_index += 8;
                }
                // Byte-at-a-time: skip whole bytes while the subtree cannot
                // close inside them.
                while pending + i32::from(min_prefix[self.bytes[byte_index] as usize]) > 0 {
                    pending += i32::from(delta[self.bytes[byte_index] as usize]);
                    byte_index += 1;
                }
                i = byte_index << 2;
            }
            if self.tag(i) == NODE {
                pending += 1;
            } else {
                pending -= 1;
            }
            i += 1;
        }
        i
    }

    /// `ends[i]` = one past the end of the subtree rooted at `i`, for every
    /// node — one forward pass, so spine-shaped trees cost O(n) instead of
    /// the O(n²) of repeated [`TagsView::subtree_end`] scans. Fills the
    /// caller-provided buffers so the mechanism hot loop can reuse their
    /// allocations across calls (see [`ReduceScratch`]).
    fn subtree_ends_into(&self, ends: &mut Vec<u32>, open: &mut Vec<(u32, u8)>) {
        ends.clear();
        ends.resize(self.len, 0u32);
        // Open interior nodes: (index, children still missing).
        open.clear();
        for i in 0..self.len {
            if self.tag(i) == NODE {
                open.push((i as u32, 2));
                continue;
            }
            // The leaf at `i` is the final tag of every subtree completing
            // here, so they all share the same end.
            let end = (i + 1) as u32;
            ends[i] = end;
            while let Some(frame) = open.last_mut() {
                frame.1 -= 1;
                if frame.1 > 0 {
                    break;
                }
                ends[frame.0 as usize] = end;
                open.pop();
            }
        }
    }
}

impl PartialEq for TagVec {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.bytes() == other.bytes()
    }
}

impl Eq for TagVec {}

impl core::hash::Hash for TagVec {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.bytes().hash(state);
    }
}

/// Packed preorder-tag-array representation of a name.
///
/// See the [module documentation](self) for the encoding and the complexity
/// guarantees. The default value is the empty name `{}`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PackedName {
    tags: TagVec,
    strings: u32,
    bits: u32,
}

impl Default for PackedName {
    fn default() -> Self {
        PackedName::empty()
    }
}

impl PackedName {
    /// The empty name `{}`.
    #[must_use]
    pub fn empty() -> Self {
        let mut tags = TagVec::new();
        tags.push(EMPTY);
        PackedName { tags, strings: 0, bits: 0 }
    }

    /// The name `{ε}`: the identity of the initial element of a system.
    #[must_use]
    pub fn epsilon() -> Self {
        let mut tags = TagVec::new();
        tags.push(ELEM);
        PackedName { tags, strings: 1, bits: 0 }
    }

    /// Returns `true` when the name is `{}`.
    ///
    /// O(1): canonical form guarantees a subtree is empty exactly when its
    /// root tag is `Empty`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tags.get(0) == EMPTY
    }

    /// Returns `true` when the name is exactly `{ε}`.
    #[must_use]
    pub fn is_epsilon(&self) -> bool {
        self.tags.len() == 1 && self.tags.get(0) == ELEM
    }

    /// Number of strings in the antichain — O(1), cached.
    #[must_use]
    pub fn string_count(&self) -> usize {
        self.strings as usize
    }

    /// Total bits across all strings (the space metric of experiment E7) —
    /// O(1), cached.
    #[must_use]
    pub fn bit_size(&self) -> usize {
        self.bits as usize
    }

    /// Number of trie nodes — O(1): every tag is a node.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.tags.len()
    }

    /// Number of bits the shared wire encoding of this name occupies:
    /// one bit per `Empty` tag, two per `Elem`/`Node`.
    ///
    /// SWAR word loop: the total is the tag count plus the number of
    /// non-`Empty` lanes, counted 32 lanes per `u64` word (this runs once
    /// per stored clock every time the store samples its metadata curve).
    #[must_use]
    pub fn encoded_bits(&self) -> usize {
        let bytes = self.tags.bytes();
        let mut non_empty = 0u32;
        let mut i = 0usize;
        while i + 8 <= bytes.len() {
            let word = tag_word(bytes, i);
            non_empty += ((word | (word >> 1)) & LANE_LO).count_ones();
            i += 8;
        }
        for &byte in &bytes[i..] {
            let b = u32::from(byte);
            non_empty += ((b | (b >> 1)) & 0x55).count_ones();
        }
        // Padding lanes past the last tag are zero (`Empty`) and count as 0.
        self.tags.len() + non_empty as usize
    }

    /// Raw tag accessor for the encoder; `0 = Empty`, `1 = Elem`, `2 = Node`.
    pub(crate) fn tag(&self, index: usize) -> u8 {
        self.tags.get(index)
    }

    /// The packed 2-bit tag bytes (four tags per byte, zero-padded tail) —
    /// the in-memory layout doubles as the byte-aligned wire payload.
    pub(crate) fn tag_bytes(&self) -> &[u8] {
        self.tags.bytes()
    }

    /// Builds a name by copying already-validated packed tag bytes directly
    /// into the tag array — the allocation-light decode path of the
    /// byte-aligned codec (no per-tag pushes, no trie round-trip).
    pub(crate) fn from_packed_tag_bytes(bytes: &[u8], tag_count: usize) -> PackedName {
        debug_assert_eq!(bytes.len(), tag_count.div_ceil(TAGS_PER_BYTE));
        let mut tags = TagVec::new();
        if bytes.len() <= INLINE_BYTES {
            tags.inline[..bytes.len()].copy_from_slice(bytes);
        } else {
            tags.heap = pooled_buf(bytes.len());
            tags.heap.extend_from_slice(bytes);
        }
        tags.len = tag_count as u32;
        PackedName::from_tags(tags)
    }

    /// Depth of the deepest element (length of the longest string).
    ///
    /// Iterative preorder walk with a small depth stack.
    #[must_use]
    pub fn depth(&self) -> usize {
        let mut max = 0usize;
        let mut depth = 0usize;
        // Depths of the pending `one` children of open interior nodes.
        let mut pending: Vec<usize> = Vec::new();
        for i in 0..self.tags.len() {
            match self.tags.get(i) {
                NODE => {
                    pending.push(depth + 1);
                    depth += 1;
                }
                tag => {
                    if tag == ELEM {
                        max = max.max(depth);
                    }
                    depth = pending.pop().unwrap_or(0);
                }
            }
        }
        max
    }

    /// Recomputes the cached string count and bit size from the tags.
    fn recount(tags: &TagVec) -> (u32, u32) {
        let tags = tags.view();
        let mut strings = 0u32;
        let mut bits = 0u32;
        let mut depth = 0u32;
        let mut pending: Vec<u32> = Vec::with_capacity(64);
        for i in 0..tags.len {
            match tags.tag(i) {
                NODE => {
                    pending.push(depth + 1);
                    depth += 1;
                }
                tag => {
                    if tag == ELEM {
                        strings += 1;
                        bits += depth;
                    }
                    depth = pending.pop().unwrap_or(0);
                }
            }
        }
        (strings, bits)
    }

    fn from_tags(tags: TagVec) -> Self {
        let (strings, bits) = Self::recount(&tags);
        PackedName { tags, strings, bits }
    }

    /// The order `⊑` on names: down-set inclusion (Definition 4.1). Store
    /// clocks use the cover order instead ([`PackedName::cover_leq`]).
    ///
    /// A single lockstep scan of the two tag arrays — no recursion and no
    /// allocation of any kind.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::{Name, PackedName};
    /// let a = PackedName::from_name(&"{00, 011}".parse::<Name>().unwrap());
    /// let b = PackedName::from_name(&"{000, 011, 1}".parse::<Name>().unwrap());
    /// assert!(a.leq(&b));
    /// assert!(!b.leq(&a));
    /// ```
    #[must_use]
    pub fn leq(&self, other: &PackedName) -> bool {
        // O(1) rejection: `a ⊑ b` maps every string of `a` to a distinct
        // extension in `b` (two prefixes of the same string are comparable,
        // so the map is injective), hence both cached aggregates are
        // monotone along `⊑`.
        if self.strings > other.strings || self.bits > other.bits {
            return false;
        }
        let a = self.tags.view();
        let b = other.tags.view();
        // O(bytes) acceptance: identical tag arrays denote the same name.
        if self.tags.len == other.tags.len
            && a.bytes[..self.tags.byte_len()] == b.bytes[..other.tags.byte_len()]
        {
            return true;
        }
        // The walk below consumes `a` strictly left to right, one tag per
        // lockstep transition, and the number of open comparison subtrees
        // equals the open-subtree count of `a`'s preorder prefix at `ia`.
        // For a canonical array (one complete root subtree) that count is
        // positive strictly before the end and zero exactly at it, so the
        // walk terminates **only at the end of `a`** — which is what lets
        // the wide-word loop consume full words without a closing-bound
        // check, and the padded byte-tail resolve in a single masked-word
        // evaluation instead of per-byte table steps.
        let (mut ia, mut ib) = (0usize, 0usize);
        while ia < a.len {
            // Wide-word block loop: while both cursors are byte-aligned,
            // classify up to 32 lockstep tag pairs per step. `fail` has a
            // bit per lane where a non-empty `a` sits over an empty `b` or
            // an interior `a` over an element `b`; `bail` where a leaf `a`
            // sits over an interior `b` (subtree skip needed, the cursors
            // desynchronize). Tail words are zero-padded; the mask keeps
            // only genuine lockstep lanes.
            if ia & 3 == 0 && ib & 3 == 0 {
                loop {
                    let rem = (a.len - ia).min(b.len - ib).min(32);
                    let va = tag_word_padded(a.bytes, ia >> 2);
                    let vb = tag_word_padded(b.bytes, ib >> 2);
                    let live = lane_mask(rem);
                    let (a_hi, a_lo) = ((va >> 1) & LANE_LO, va & LANE_LO);
                    let (b_hi, b_lo) = ((vb >> 1) & LANE_LO, vb & LANE_LO);
                    let a_node = a_hi & !a_lo;
                    let a_empty = !(a_hi | a_lo) & LANE_LO;
                    let b_node = b_hi & !b_lo;
                    let b_elem = b_lo & !b_hi;
                    let b_empty = !(b_hi | b_lo) & LANE_LO;
                    let fail = ((!a_empty & LANE_LO & b_empty) | (a_node & b_elem)) & live;
                    let bail = (!a_node & LANE_LO & b_node) & live;
                    if fail == 0 && bail == 0 {
                        if rem == 32 && a.len - ia > 32 {
                            // A full word of plain lockstep transitions, and
                            // the walk cannot terminate inside it (the end
                            // of `a` lies beyond): consume it whole.
                            ia += 32;
                            ib += 32;
                            continue;
                        }
                        // The byte tail: no fail or bail lane left, so the
                        // walk runs lockstep to the end of `a` — the only
                        // place it can terminate — and succeeds. Pure
                        // lockstep mirrors the node/leaf pattern, so both
                        // sides end together.
                        debug_assert_eq!(a.len - ia, b.len - ib);
                        return true;
                    }
                    // A fail lane strictly before any bail lane is reached
                    // by the walk (every earlier lane is plain lockstep and
                    // the walk cannot terminate before the end of `a`).
                    if fail != 0 && (bail == 0 || fail.trailing_zeros() < bail.trailing_zeros()) {
                        return false;
                    }
                    // A bail lane first: bulk-consume the clean lockstep
                    // prefix, then let the scalar match run the skip.
                    let clean = bail.trailing_zeros() as usize / 2;
                    ia += clean;
                    ib += clean;
                    break;
                }
            }
            match (a.tag(ia), b.tag(ib)) {
                // {} is below everything.
                (EMPTY, _) => {
                    ia += 1;
                    ib = b.subtree_end(ib);
                }
                // A non-empty subtree is never below an empty one.
                (_, EMPTY) => return false,
                // {path} ⊑ any non-empty subtree at the same path.
                (ELEM, _) => {
                    ia += 1;
                    ib = b.subtree_end(ib);
                }
                // A canonical interior node is non-empty, hence ⋢ {path}.
                (NODE, ELEM) => return false,
                // Descend into both pairs of children.
                (NODE, NODE) => {
                    ia += 1;
                    ib += 1;
                }
                _ => unreachable!("tags are two-bit values 0..=2"),
            }
        }
        true
    }

    /// Strict version of [`PackedName::leq`].
    #[must_use]
    pub fn lt(&self, other: &PackedName) -> bool {
        self.leq(other) && !other.leq(self)
    }

    /// Classifies the pair under the pre-order induced by `⊑`.
    #[must_use]
    pub fn relation(&self, other: &PackedName) -> Relation {
        Relation::from_leq(self.leq(other), other.leq(self))
    }

    /// Copies the subtree of `src` rooted at `start` into `out`, returning
    /// the subtree end.
    fn copy_subtree(src: TagsView<'_>, start: usize, out: &mut TagVec) -> usize {
        let end = src.subtree_end(start);
        out.extend_tags(src, start, end);
        end
    }

    /// The semilattice join `⊔`: maximal elements of the union.
    ///
    /// A single lockstep merge of the two tag arrays into a fresh buffer —
    /// no recursion, no per-node allocation.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::{Name, PackedName};
    /// let a = PackedName::from_name(&"{00, 011}".parse::<Name>().unwrap());
    /// let b = PackedName::from_name(&"{000, 01, 1}".parse::<Name>().unwrap());
    /// let expected = PackedName::from_name(&"{000, 011, 1}".parse::<Name>().unwrap());
    /// assert_eq!(a.join(&b), expected);
    /// ```
    #[must_use]
    pub fn join(&self, other: &PackedName) -> PackedName {
        let a = self.tags.view();
        let b = other.tags.view();
        let mut out = TagVec::with_tag_capacity(self.tags.len().max(other.tags.len()));
        let (mut ia, mut ib) = (0usize, 0usize);
        let mut pending = 1usize;
        while pending > 0 {
            match (a.tag(ia), b.tag(ib)) {
                // {} ⊔ n = n: copy the other subtree verbatim.
                (EMPTY, _) => {
                    ia += 1;
                    ib = Self::copy_subtree(b, ib, &mut out);
                    pending -= 1;
                }
                (_, EMPTY) => {
                    ib += 1;
                    ia = Self::copy_subtree(a, ia, &mut out);
                    pending -= 1;
                }
                // {path} ⊔ n = n for non-empty n (and Elem ⊔ Elem = Elem).
                (ELEM, _) => {
                    ia += 1;
                    ib = Self::copy_subtree(b, ib, &mut out);
                    pending -= 1;
                }
                (NODE, ELEM) => {
                    ib += 1;
                    ia = Self::copy_subtree(a, ia, &mut out);
                    pending -= 1;
                }
                // Join children pairwise; both inputs canonical means both
                // merged children stay non-empty, so the node is canonical.
                (NODE, NODE) => {
                    out.push(NODE);
                    ia += 1;
                    ib += 1;
                    pending += 1;
                }
                _ => unreachable!("tags are two-bit values 0..=2"),
            }
        }
        PackedName::from_tags(out)
    }

    /// The cover order on **clocks**: `self ≤ other` iff every string of
    /// `self` has a prefix in `other`, i.e. the region (the subtrees)
    /// under `self` lies inside the region under `other`.
    ///
    /// A clock is a set of spent dots, and dots are pairwise disjoint
    /// regions, so region inclusion is exactly dot-set inclusion. This is
    /// *not* Definition 4.1's order on names ([`PackedName::leq`]), under
    /// which `{0} ⊑ {00}`: a clock `{0}` that merged the dots `00` and `01`
    /// would rank below a clock holding only `00`. Both inputs must be
    /// cover-canonical ([`PackedName::is_cover_canonical`]); for clocks of
    /// pairwise-disjoint dots that never merged, the two orders agree.
    ///
    /// One lockstep walk of the two tag arrays, the mirror of `leq`.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::PackedName;
    /// let merged: PackedName = "{0}".parse().unwrap();
    /// let half: PackedName = "{00}".parse().unwrap();
    /// assert!(half.cover_leq(&merged));
    /// assert!(!merged.cover_leq(&half));
    /// assert!(merged.leq(&half), "Definition 4.1 says the opposite");
    /// ```
    #[must_use]
    pub fn cover_leq(&self, other: &PackedName) -> bool {
        self.cover_walk(other, true).0
    }

    /// Classifies two cover-canonical clocks under
    /// [`PackedName::cover_leq`], in one walk.
    #[must_use]
    pub fn cover_relation(&self, other: &PackedName) -> Relation {
        let (le, ge) = self.cover_walk(other, false);
        Relation::from_leq(le, ge)
    }

    /// `(self ≤ other, other ≤ self)` under the cover order. Stops once
    /// the first is false when `only_le`, or once both are.
    fn cover_walk(&self, other: &PackedName, only_le: bool) -> (bool, bool) {
        if self.tags == other.tags {
            return (true, true);
        }
        let a = self.tags.view();
        let b = other.tags.view();
        let (mut le, mut ge) = (true, true);
        let (mut ia, mut ib) = (0usize, 0usize);
        let mut pending = 1usize;
        while pending > 0 {
            // Where the two arrays hold the same tags the walk descends in
            // lockstep and classifies nothing (a clock and its join with a
            // dot share everything off the dot's path). Compare up to 32
            // tags at once from each cursor, whatever its alignment, and
            // consume the identical run. The walk ends only at the end of
            // `a`, so a run that reaches it ends the walk.
            let rem = (a.len - ia).min(b.len - ib);
            let lanes = rem.min(32 - (ia & 3)).min(32 - (ib & 3));
            let va = tag_word_padded(a.bytes, ia >> 2) >> ((ia & 3) * 2);
            let vb = tag_word_padded(b.bytes, ib >> 2) >> ((ib & 3) * 2);
            let diff = (va ^ vb) & (lane_mask(lanes) | (lane_mask(lanes) << 1));
            let same = if diff == 0 { lanes } else { diff.trailing_zeros() as usize / 2 };
            if same > 0 {
                if same == a.len - ia {
                    return (le, ge);
                }
                let run = va & (lane_mask(same) | (lane_mask(same) << 1));
                let nodes = ((run >> 1) & !run & LANE_LO).count_ones() as usize;
                pending = pending + 2 * nodes - same;
                ia += same;
                ib += same;
                if same == lanes {
                    continue;
                }
            }
            // The tags differ here.
            match (a.tag(ia), b.tag(ib)) {
                // `b` has strings where `a` has none.
                (EMPTY, _) => {
                    ge = false;
                    ia += 1;
                    ib = b.subtree_end(ib);
                }
                (_, EMPTY) => {
                    le = false;
                    ia = a.subtree_end(ia);
                    ib += 1;
                }
                // An element covers the other side's interior subtree, and a
                // canonical interior subtree never covers a whole element.
                (ELEM, _) => {
                    le = false;
                    ia += 1;
                    ib = b.subtree_end(ib);
                }
                _ => {
                    ge = false;
                    ia = a.subtree_end(ia);
                    ib += 1;
                }
            }
            pending -= 1;
            if !le && (only_le || !ge) {
                break;
            }
        }
        (le, ge)
    }

    /// The join of two clocks under the cover order: the union of their
    /// regions, in cover-canonical form — a string covered by a shorter
    /// one drops out, and two sibling strings `s·0`, `s·1` merge into `s`,
    /// repeatedly on the way up (the sibling rule of `reduce_pair(c, c)`).
    ///
    /// One lockstep merge of the two tag arrays, the mirror of `join`; a
    /// merge only ever rewrites the last three output tags.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::PackedName;
    /// let a: PackedName = "{00, 1}".parse().unwrap();
    /// let b: PackedName = "{01, 111}".parse().unwrap();
    /// assert_eq!(a.cover_join(&b), PackedName::epsilon());
    /// ```
    #[must_use]
    pub fn cover_join(&self, other: &PackedName) -> PackedName {
        let a = self.tags.view();
        let b = other.tags.view();
        let mut out = TagVec::with_tag_capacity(self.tags.len().max(other.tags.len()));
        // Open output nodes: (index, children still missing).
        let mut open: Vec<(usize, u8)> = Vec::new();
        let (mut ia, mut ib) = (0usize, 0usize);
        loop {
            match (a.tag(ia), b.tag(ib)) {
                (NODE, NODE) => {
                    open.push((out.len(), 2));
                    out.push(NODE);
                    ia += 1;
                    ib += 1;
                    continue;
                }
                (EMPTY, _) => {
                    ia += 1;
                    ib = Self::copy_subtree(b, ib, &mut out);
                }
                (_, EMPTY) => {
                    ib += 1;
                    ia = Self::copy_subtree(a, ia, &mut out);
                }
                // An element on either side covers the other subtree.
                _ => {
                    out.push(ELEM);
                    ia = a.subtree_end(ia);
                    ib = b.subtree_end(ib);
                }
            }
            // A subtree is complete: close the nodes it completes.
            loop {
                let Some(frame) = open.last_mut() else {
                    return PackedName::from_tags(out);
                };
                frame.1 -= 1;
                if frame.1 > 0 {
                    break;
                }
                let at = frame.0;
                open.pop();
                Self::merge_full_node(&mut out, at);
            }
        }
    }

    /// Rewrites a just-completed output node at `at` whose two children are
    /// both elements into one element (the cover-canonical sibling merge).
    fn merge_full_node(out: &mut TagVec, at: usize) {
        if out.len() == at + 3 && out.get(at + 1) == ELEM && out.get(at + 2) == ELEM {
            out.truncate(at);
            out.push(ELEM);
        }
    }

    /// The k-way [`PackedName::cover_join`]: one multi-cursor merge of the
    /// tag arrays instead of a pairwise fold, which pays `j − 1`
    /// intermediate names for `j` inputs (the store's sibling-set context
    /// rebuild).
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::PackedName;
    /// let clocks: Vec<PackedName> =
    ///     ["{00}", "{010, 1}", "{011}"].iter().map(|s| s.parse().unwrap()).collect();
    /// assert_eq!(PackedName::cover_join_many(&clocks), PackedName::epsilon());
    /// ```
    #[must_use]
    pub fn cover_join_many<'a, I>(names: I) -> PackedName
    where
        I: IntoIterator<Item = &'a PackedName>,
    {
        let inputs: Vec<&PackedName> = names.into_iter().filter(|name| !name.is_empty()).collect();
        match inputs.len() {
            0 => return PackedName::empty(),
            1 => return inputs[0].clone(),
            2 => return inputs[0].cover_join(inputs[1]),
            _ => {}
        }
        JOIN_MANY_SCRATCH.with(|cell| Self::cover_join_many_with(&inputs, &mut cell.borrow_mut()))
    }

    /// [`PackedName::cover_join_many`] against caller-owned scratch;
    /// `inputs` are non-empty and at least three. A frame whose start is
    /// [`CLOSE_FRAME`] closes the output node at its `len`.
    fn cover_join_many_with(inputs: &[&PackedName], scratch: &mut JoinManyScratch) -> PackedName {
        let views: Vec<TagsView<'_>> = inputs.iter().map(|name| name.tags.view()).collect();
        let JoinManyScratch { ends, open, cursors, frames } = scratch;
        if ends.len() < views.len() {
            ends.resize_with(views.len(), Vec::new);
        }
        for (view, table) in views.iter().zip(ends.iter_mut()) {
            view.subtree_ends_into(table, open);
        }
        let mut out =
            TagVec::with_tag_capacity(inputs.iter().map(|name| name.tags.len()).max().unwrap_or(1));
        cursors.clear();
        frames.clear();
        for index in 0..views.len() {
            cursors.push((index as u32, 0u32));
        }
        frames.push((0u32, views.len() as u32));
        while let Some((start, len)) = frames.pop() {
            if start == CLOSE_FRAME {
                Self::merge_full_node(&mut out, len as usize);
                continue;
            }
            let (start, len) = (start as usize, len as usize);
            let mut nodes = 0usize;
            let mut last_node = (0u32, 0u32);
            let mut elems = 0usize;
            for &(name, pos) in &cursors[start..start + len] {
                match views[name as usize].tag(pos as usize) {
                    NODE => {
                        nodes += 1;
                        last_node = (name, pos);
                    }
                    ELEM => elems += 1,
                    _ => {}
                }
            }
            if elems > 0 || nodes == 0 {
                // An element covers every co-located subtree.
                out.push(if elems > 0 { ELEM } else { EMPTY });
                continue;
            }
            if nodes == 1 {
                let (name, pos) = last_node;
                let end = ends[name as usize][pos as usize] as usize;
                out.extend_tags(views[name as usize], pos as usize, end);
                continue;
            }
            frames.push((CLOSE_FRAME, out.len() as u32));
            out.push(NODE);
            let zero_start = cursors.len();
            for slot in start..start + len {
                let (name, pos) = cursors[slot];
                if views[name as usize].tag(pos as usize) == NODE {
                    cursors.push((name, pos + 1));
                }
            }
            let one_start = cursors.len();
            for slot in start..start + len {
                let (name, pos) = cursors[slot];
                if views[name as usize].tag(pos as usize) == NODE {
                    cursors.push((name, ends[name as usize][pos as usize + 1]));
                }
            }
            frames.push((one_start as u32, nodes as u32));
            frames.push((zero_start as u32, nodes as u32));
        }
        PackedName::from_tags(out)
    }

    /// Whether the name is a cover-canonical clock: no interior node has two
    /// element children. With the trie's own canonical form (no empty
    /// interior node, no string below another) this makes the region a
    /// clock denotes determine its bytes, so equal clocks are byte-equal.
    ///
    /// One scan: an element is a one-tag subtree, so a node's two element
    /// children are exactly the tag run `Node, Elem, Elem`. The scan looks
    /// for that run at 28 lanes per `u64` word, in windows 7 bytes apart
    /// that overlap by the run's two trailing lanes (padding lanes read as
    /// `Empty` and match nothing).
    #[must_use]
    pub fn is_cover_canonical(&self) -> bool {
        let bytes = self.tags.bytes();
        (0..bytes.len()).step_by(7).all(|byte| {
            let word = tag_word_padded(bytes, byte);
            let nodes = (word >> 1) & !word & LANE_LO;
            let elems = word & !(word >> 1) & LANE_LO;
            nodes & (elems >> 2) & (elems >> 4) & lane_mask(28) == 0
        })
    }

    /// The counter-shaped dot mint: returns `(kept, dot)`, where `dot` is a
    /// single string the element spends and `kept` is the rest of it.
    ///
    /// The leftmost string `l` of the element is split down to the
    /// element's deepest level, and its leftmost leaf `l·0…0` is the dot;
    /// the right siblings along the split path stay in `kept`. When `l` is
    /// already at the deepest level of a several-string element, `l`
    /// itself is the dot. A one-string element `{s}` is split as many
    /// levels deep as `s` ends in one bits, and at least one: a run of
    /// writes that spends a whole `{s}` leaves `{s·1}`, so each completed
    /// run splits the next one a level deeper — the carry of a binary
    /// counter. (Splitting `|s|` levels deep gives the same run from `ε`,
    /// but an element deepened by exchanges would then mint dots twice its
    /// depth, and a run an exchange cuts short leaves that whole depth in
    /// the clock.)
    ///
    /// A run of mints from one element therefore spends a left-to-right
    /// interval of leaves, so the canonical union of the spent dots
    /// ([`PackedName::cover_join`]) and the element that remains each stay
    /// O(depth) strings — where [`PackedName::fork_dot`] spends
    /// `e·1, e·01, e·001, …`, no two of them siblings. The dot is disjoint
    /// from `kept`, and `kept ∪ {dot}` is the element's region, so a dot
    /// overlaps no other live id (I2).
    ///
    /// Returns `(empty, empty)` for the empty name, mirroring `fork_dot`.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::PackedName;
    /// let one: PackedName = "{11}".parse().unwrap();
    /// let (kept, dot) = one.mint_dot();
    /// assert_eq!(dot, "{1100}".parse().unwrap());
    /// assert_eq!(kept, "{1101, 111}".parse().unwrap());
    /// let (kept, dot) = kept.mint_dot();
    /// assert_eq!(dot, "{1101}".parse().unwrap());
    /// assert_eq!(kept, "{111}".parse().unwrap());
    /// ```
    #[must_use]
    pub fn mint_dot(&self) -> (PackedName, PackedName) {
        if self.is_empty() {
            return (PackedName::empty(), PackedName::empty());
        }
        let view = self.tags.view();
        // The leftmost string `l`: a canonical node's zero child is empty
        // only when its one child holds the strings, so the walk down is
        // "zero unless the zero child is empty". `starts[k]` is the index
        // of the subtree at `l[..k]`.
        let mut l = BitString::empty();
        let mut starts = vec![0usize];
        let mut i = 0usize;
        let mut ones = 0usize;
        while view.tag(i) == NODE {
            i = if view.tag(i + 1) == EMPTY {
                l.push(Bit::One);
                ones += 1;
                i + 2
            } else {
                l.push(Bit::Zero);
                ones = 0;
                i + 1
            };
            starts.push(i);
        }
        let len = l.len() as u32;
        let levels = if self.strings == 1 { ones.max(1) } else { self.depth() - l.len() };
        let mut out = TagVec::with_tag_capacity(self.tags.len() + 2 * levels + 1);
        if levels == 0 {
            // `l` is spent whole: cut the largest subtree on its path that
            // holds no other string (a one-bit step's zero child is empty,
            // a zero-bit step's one child follows the subtree) to `Empty`.
            let (mut k, mut end) = (l.len(), i + 1);
            while l.get(k - 1) == Some(Bit::One) || view.tag(end) == EMPTY {
                if l.get(k - 1) == Some(Bit::Zero) {
                    end += 1;
                }
                k -= 1;
            }
            out.extend_tags(view, 0, starts[k]);
            out.push(EMPTY);
            out.extend_tags(view, end, view.len);
            let kept = PackedName { tags: out, strings: self.strings - 1, bits: self.bits - len };
            return (kept, PackedName::singleton(&l));
        }
        // `l` becomes the split path: `levels` nodes, the spent leaf, then
        // the kept one child of every node on the path, deepest first.
        out.extend_tags(view, 0, i);
        for _ in 0..levels {
            out.push(NODE);
        }
        out.push(EMPTY);
        for _ in 0..levels {
            out.push(ELEM);
        }
        out.extend_tags(view, i + 1, view.len);
        let levels32 = levels as u32;
        let kept = PackedName {
            tags: out,
            strings: self.strings - 1 + levels32,
            bits: self.bits - len + levels32 * len + levels32 * (levels32 + 1) / 2,
        };
        let mut dot = l;
        for _ in 0..levels {
            dot.push(Bit::Zero);
        }
        (kept, PackedName::singleton(&dot))
    }

    /// Splits off the rightmost string: `(rest, {last})`, or `None` when
    /// the name has fewer than two strings. For an element the dot mint
    /// has been spending, the rightmost string is the one farthest from
    /// the spent dots (and the shallowest).
    ///
    /// One walk down the rightmost path, the mirror of the leftmost walk
    /// of [`PackedName::mint_dot`], then one copy of the tags around the
    /// largest subtree on that path that holds no other string.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::PackedName;
    /// let run: PackedName = "{11010, 11011, 111}".parse().unwrap();
    /// let (rest, last) = run.split_last().unwrap();
    /// assert_eq!((rest, last), ("{11010, 11011}".parse().unwrap(), "{111}".parse().unwrap()));
    /// assert!("{0}".parse::<PackedName>().unwrap().split_last().is_none());
    /// ```
    #[must_use]
    pub fn split_last(&self) -> Option<(PackedName, PackedName)> {
        if self.strings < 2 {
            return None;
        }
        let view = self.tags.view();
        // The rightmost string `r`: "one unless the one child is empty".
        // `steps` holds, per bit, the index of the node it leaves and the
        // bit; the subtree of a node on the path ends where the subtree
        // below it ends, plus the empty one child a zero step skips.
        let mut r = BitString::empty();
        let mut steps: Vec<(usize, Bit)> = Vec::new();
        let mut i = 0usize;
        while view.tag(i) == NODE {
            let one = view.subtree_end(i + 1);
            let bit = if view.tag(one) == EMPTY { Bit::Zero } else { Bit::One };
            steps.push((i, bit));
            r.push(bit);
            i = if bit == Bit::Zero { i + 1 } else { one };
        }
        // Climb while the node's other child is empty: that subtree holds
        // `r` alone and is cut to `Empty` whole.
        let (mut start, mut end) = (i, i + 1);
        while let Some(&(node, bit)) = steps.last() {
            let alone = match bit {
                Bit::Zero => true,
                Bit::One => view.tag(node + 1) == EMPTY,
            };
            if !alone {
                break;
            }
            if bit == Bit::Zero {
                end += 1;
            }
            start = node;
            steps.pop();
        }
        let mut out = TagVec::with_tag_capacity(view.len);
        out.extend_tags(view, 0, start);
        out.push(EMPTY);
        out.extend_tags(view, end, view.len);
        let rest =
            PackedName { tags: out, strings: self.strings - 1, bits: self.bits - r.len() as u32 };
        Some((rest, PackedName::singleton(&r)))
    }

    /// Appends `bit` to every string of the name — the lifted concatenation
    /// used by fork.
    ///
    /// In tag form this is a single rewrite pass: every `Elem` becomes a
    /// `Node` with an `Elem` on the `bit` branch and an `Empty` sibling.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::{Bit, Name, PackedName};
    /// let n = PackedName::from_name(&"{0, 11}".parse::<Name>().unwrap());
    /// assert_eq!(n.append(Bit::One).to_name(), "{01, 111}".parse::<Name>().unwrap());
    /// ```
    #[must_use]
    pub fn append(&self, bit: Bit) -> PackedName {
        let mut out = TagVec::with_tag_capacity(self.tags.len() + 2 * self.string_count());
        for i in 0..self.tags.len() {
            match self.tags.get(i) {
                ELEM => match bit {
                    Bit::Zero => {
                        out.push(NODE);
                        out.push(ELEM);
                        out.push(EMPTY);
                    }
                    Bit::One => {
                        out.push(NODE);
                        out.push(EMPTY);
                        out.push(ELEM);
                    }
                },
                tag => out.push(tag),
            }
        }
        PackedName { tags: out, strings: self.strings, bits: self.bits + self.strings }
    }

    /// Fused fork-and-dot mint: returns `(self·0, dot)` where `self·0` is
    /// [`PackedName::append`]`(Bit::Zero)` and `dot` is the canonical
    /// single-string name the spent half `self·1` reduces to as a dot —
    /// `{shallowest(self)·1}` — without ever materialising `self·1`.
    ///
    /// Appending a bit to every string shifts all depths uniformly and
    /// preserves preorder, so the shallowest string of `self·1` (preorder
    /// tie-break included) is exactly the shallowest string of `self` with
    /// `1` appended; and for a single-string name the appended form *is*
    /// its singleton encoding. Both arms of a store-side dot mint — "a
    /// single-string spent id is its own dot" and "take the shallowest" —
    /// therefore agree with `singleton(shallowest(self)·1)` byte-for-byte,
    /// which is what this returns. One pass over the tags builds the kept
    /// half and tracks the shallowest string at the same time, replacing
    /// the fork's second full-name rewrite plus a separate shallowest scan.
    ///
    /// Returns `(empty, empty)` for the empty name, mirroring `append`.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::{Bit, PackedName};
    /// let n: PackedName = "{01, 1}".parse().unwrap();
    /// let (kept, dot) = n.fork_dot();
    /// assert_eq!(kept, n.append(Bit::Zero));
    /// assert_eq!(dot, "{11}".parse().unwrap());
    /// ```
    #[must_use]
    pub fn fork_dot(&self) -> (PackedName, PackedName) {
        let mut out = TagVec::with_tag_capacity(self.tags.len() + 2 * self.string_count());
        let mut best: Option<BitString> = None;
        let mut prefix = BitString::empty();
        let mut open: Vec<bool> = Vec::new();
        for i in 0..self.tags.len() {
            let tag = self.tags.get(i);
            if tag == NODE {
                out.push(NODE);
                open.push(false);
                prefix.push(Bit::Zero);
                continue;
            }
            if tag == ELEM {
                out.push(NODE);
                out.push(ELEM);
                out.push(EMPTY);
                if !best.as_ref().is_some_and(|b| b.len() <= prefix.len()) {
                    best = Some(prefix.clone());
                }
            } else {
                out.push(EMPTY);
            }
            while let Some(in_one) = open.last_mut() {
                if *in_one {
                    open.pop();
                    prefix.pop();
                } else {
                    *in_one = true;
                    prefix.pop();
                    prefix.push(Bit::One);
                    break;
                }
            }
        }
        let kept = PackedName { tags: out, strings: self.strings, bits: self.bits + self.strings };
        let dot = match best {
            Some(mut s) => {
                s.push(Bit::One);
                PackedName::singleton(&s)
            }
            None => PackedName::empty(),
        };
        (kept, dot)
    }

    /// Query depth from which [`PackedName::locate`] builds the one-pass
    /// subtree-end skip index instead of re-scanning sibling subtrees: every
    /// `One` step otherwise costs a [`TagsView::subtree_end`] scan of the
    /// zero sibling, which is O(n) per step on one-heavy spines.
    const SKIP_INDEX_DEPTH: usize = 12;

    /// Walks the trie along `s` and returns the tag of the node the last
    /// bit lands on, or `None` when the walk falls off the trie.
    ///
    /// Shallow queries descend with per-step sibling skips; queries at
    /// least [`PackedName::SKIP_INDEX_DEPTH`] deep into a spilled name
    /// precompute the subtree-end index once (pooled scratch, one forward
    /// pass) and then descend with O(1) lookups — the "subtree-count skip
    /// index" for one-heavy spines.
    fn locate(&self, s: &BitString) -> Option<u8> {
        let view = self.tags.view();
        if s.len() >= Self::SKIP_INDEX_DEPTH && view.len > INLINE_TAGS {
            return LOCATE_SCRATCH.with(|cell| {
                let (ends, open) = &mut *cell.borrow_mut();
                view.subtree_ends_into(ends, open);
                let mut i = 0usize;
                for bit in s.iter() {
                    if view.tag(i) != NODE {
                        return None;
                    }
                    i = match bit {
                        Bit::Zero => i + 1,
                        Bit::One => ends[i + 1] as usize,
                    };
                }
                Some(view.tag(i))
            });
        }
        let mut i = 0usize;
        for bit in s.iter() {
            if view.tag(i) != NODE {
                return None;
            }
            i = match bit {
                Bit::Zero => i + 1,
                Bit::One => view.subtree_end(i + 1),
            };
        }
        Some(view.tag(i))
    }

    /// Returns `true` when the antichain contains exactly the string `s`
    /// (membership, not domination). Iterative cursor walk.
    #[must_use]
    pub fn contains(&self, s: &BitString) -> bool {
        self.locate(s) == Some(ELEM)
    }

    /// Returns `true` when `{s} ⊑ self`, i.e. some element of the antichain
    /// has `s` as a prefix.
    #[must_use]
    pub fn dominates_string(&self, s: &BitString) -> bool {
        matches!(self.locate(s), Some(tag) if tag != EMPTY)
    }

    /// The shallowest string of the antichain (ties broken towards the
    /// preorder-first, i.e. lexicographically smallest, string), or `None`
    /// when the name is empty.
    ///
    /// One pass over the tags with a branch stack — unlike
    /// [`PackedName::strings`] it never materialises the other strings,
    /// which makes it the allocation-light way to pick a stamp's *dot* in
    /// `vstamp-store`.
    #[must_use]
    pub fn shallowest_string(&self) -> Option<BitString> {
        let mut best: Option<BitString> = None;
        let mut prefix = BitString::empty();
        let mut open: Vec<bool> = Vec::new();
        for i in 0..self.tags.len() {
            match self.tags.get(i) {
                NODE => {
                    open.push(false);
                    prefix.push(Bit::Zero);
                }
                tag => {
                    if tag == ELEM && !best.as_ref().is_some_and(|b| b.len() <= prefix.len()) {
                        best = Some(prefix.clone());
                    }
                    while let Some(in_one) = open.last_mut() {
                        if *in_one {
                            open.pop();
                            prefix.pop();
                        } else {
                            *in_one = true;
                            prefix.pop();
                            prefix.push(Bit::One);
                            break;
                        }
                    }
                }
            }
        }
        best
    }

    /// The name `{s}`: a single-string antichain, built directly in tag
    /// form (no intermediate [`Name`]).
    ///
    /// Preorder shape: each bit of `s` opens a `Node`; a `One` bit's empty
    /// zero-sibling precedes its subtree, a `Zero` bit's empty one-sibling
    /// follows it — so the tags are the `Node` spine with inline `Empty`
    /// tags for `One` bits, the `Elem`, then one trailing `Empty` per
    /// `Zero` bit.
    #[must_use]
    pub fn singleton(s: &BitString) -> PackedName {
        let mut tags = TagVec::with_tag_capacity(2 * s.len() + 1);
        let mut trailing = 0usize;
        for bit in s.iter() {
            tags.push(NODE);
            match bit {
                Bit::One => tags.push(EMPTY),
                Bit::Zero => trailing += 1,
            }
        }
        tags.push(ELEM);
        for _ in 0..trailing {
            tags.push(EMPTY);
        }
        PackedName { tags, strings: 1, bits: s.len() as u32 }
    }

    /// Converts the antichain set representation into the packed form.
    ///
    /// The sorted antichain order *is* the preorder leaf order of the trie,
    /// so the tags are emitted directly from a radix partition of the
    /// sorted strings — the intermediate boxed trie is never built.
    #[must_use]
    pub fn from_name(name: &Name) -> PackedName {
        let strings: Vec<&BitString> = name.iter().collect();
        let mut tags = TagVec::new();
        // Frames are (start, end, depth) ranges of `strings`, pushed in
        // reverse so preorder (zero branch first) pops first.
        let mut frames: Vec<(usize, usize, usize)> = vec![(0, strings.len(), 0)];
        while let Some((start, end, depth)) = frames.pop() {
            if start == end {
                tags.push(EMPTY);
                continue;
            }
            if end - start == 1 && strings[start].len() == depth {
                // The antichain property guarantees no other string shares
                // this prefix when one terminates here.
                tags.push(ELEM);
                continue;
            }
            tags.push(NODE);
            // Sorted order puts all zero-branch strings first.
            let split = strings[start..end]
                .iter()
                .position(|s| s.get(depth) == Some(Bit::One))
                .map_or(end, |p| start + p);
            frames.push((split, end, depth + 1));
            frames.push((start, split, depth + 1));
        }
        PackedName { tags, strings: strings.len() as u32, bits: name.bit_size() as u32 }
    }

    /// Converts back into the explicit antichain representation.
    #[must_use]
    pub fn to_name(&self) -> Name {
        Name::from_strings(self.strings())
    }

    /// The strings of the antichain, leftmost first. Iterative walk with an
    /// explicit branch stack.
    #[must_use]
    pub fn strings(&self) -> Vec<BitString> {
        let mut out = Vec::with_capacity(self.string_count());
        let mut prefix = BitString::empty();
        // One entry per open interior node: `false` while inside its zero
        // child, `true` while inside its one child.
        let mut open: Vec<bool> = Vec::new();
        for i in 0..self.tags.len() {
            match self.tags.get(i) {
                NODE => {
                    open.push(false);
                    prefix.push(Bit::Zero);
                }
                tag => {
                    if tag == ELEM {
                        out.push(prefix.clone());
                    }
                    // Ascend past completed subtrees.
                    while let Some(in_one) = open.last_mut() {
                        if *in_one {
                            open.pop();
                            prefix.pop();
                        } else {
                            *in_one = true;
                            prefix.pop();
                            prefix.push(Bit::One);
                            break;
                        }
                    }
                }
            }
        }
        out
    }

    /// Applies the simplification rule of Section 6 to a stamp given as the
    /// pair `(update, id)`, returning the fully reduced pair.
    ///
    /// The implementation is an iterative stack machine over the two tag
    /// arrays. It emits both results in *mirrored postorder* (one child,
    /// zero child, then parent), so a sibling collapse only ever rewrites
    /// the tail of the output buffer; a final reverse pass restores
    /// preorder. No recursion, no per-node allocation.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::{Name, PackedName};
    /// let update = PackedName::from_name(&"{01}".parse::<Name>().unwrap());
    /// let id = PackedName::from_name(&"{00, 01}".parse::<Name>().unwrap());
    /// let (u, i) = PackedName::reduce_pair(&update, &id);
    /// assert_eq!(i.to_name(), "{0}".parse::<Name>().unwrap());
    /// assert_eq!(u.to_name(), "{0}".parse::<Name>().unwrap());
    /// ```
    #[must_use]
    pub fn reduce_pair(update: &PackedName, id: &PackedName) -> (PackedName, PackedName) {
        // The scratch buffers are arena-pooled per thread: `reduce_pair`
        // runs after every reducing join, and rebuilding its six working
        // vectors from scratch dominated the small-stamp hot path.
        REDUCE_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            PackedName::reduce_pair_with(update, id, &mut scratch)
        })
    }

    /// [`PackedName::reduce_pair`] against caller-owned scratch buffers
    /// (the thread-local pool is a wrapper around this).
    fn reduce_pair_with(
        update: &PackedName,
        id: &PackedName,
        scratch: &mut ReduceScratch,
    ) -> (PackedName, PackedName) {
        let uv = update.tags.view();
        let iv = id.tags.view();
        let ReduceScratch { u_ends, i_ends, open, rev_u, rev_i, boundaries, tasks } = scratch;
        // Subtree ends, precomputed in one pass each: the machine needs the
        // start of every `one` child, and deriving it by scanning the
        // sibling subtree would be quadratic on spine-shaped identities.
        uv.subtree_ends_into(u_ends, open);
        iv.subtree_ends_into(i_ends, open);
        // Reversed-preorder output buffers (one byte per tag while under
        // construction, packed at the end).
        rev_u.clear();
        rev_i.clear();
        // Marks recorded between the two child visits of each Combine.
        boundaries.clear();
        tasks.clear();
        tasks.push(Task::Visit { ui: Some(0), ii: 0, emit_u: true });

        while let Some(task) = tasks.pop() {
            match task {
                Task::Boundary => boundaries.push((rev_u.len(), rev_i.len())),
                Task::Visit { ui, ii, emit_u } => {
                    let id_tag = iv.tag(ii);
                    if id_tag != NODE {
                        // Id leaf: both components pass through unchanged.
                        rev_i.push(id_tag);
                        if emit_u {
                            let start = ui.expect("emitting frames track a real update subtree");
                            let end = u_ends[start] as usize;
                            for k in (start..end).rev() {
                                rev_u.push(uv.tag(k));
                            }
                        }
                        continue;
                    }
                    let i0 = ii + 1;
                    let i1 = i_ends[i0] as usize;
                    let update_tag = ui.map(|u| uv.tag(u));
                    match update_tag {
                        Some(NODE) => {
                            let u0 = ui.expect("checked") + 1;
                            let u1 = u_ends[u0] as usize;
                            tasks.push(Task::Combine {
                                kind: CombineKind::UpdateNode,
                                mu: rev_u.len(),
                                mi: rev_i.len(),
                                emit_u,
                            });
                            tasks.push(Task::Visit { ui: Some(u0), ii: i0, emit_u });
                            tasks.push(Task::Boundary);
                            tasks.push(Task::Visit { ui: Some(u1), ii: i1, emit_u });
                        }
                        leaf => {
                            // The update has no element strictly below this
                            // node: only the id can be rewritten here.
                            tasks.push(Task::Combine {
                                kind: CombineKind::UpdateLeaf(leaf.unwrap_or(EMPTY)),
                                mu: rev_u.len(),
                                mi: rev_i.len(),
                                emit_u,
                            });
                            tasks.push(Task::Visit { ui: None, ii: i0, emit_u: false });
                            tasks.push(Task::Boundary);
                            tasks.push(Task::Visit { ui: None, ii: i1, emit_u: false });
                        }
                    }
                }
                Task::Combine { kind, mu, mi, emit_u } => {
                    let (bu, bi) = boundaries.pop().expect("every combine records a boundary");
                    // Child result segments, in reversed preorder: the one
                    // child occupies [mi..bi], the zero child [bi..].
                    let seg_is =
                        |buf: &[u8], lo: usize, hi: usize, tag: u8| hi - lo == 1 && buf[lo] == tag;
                    let i_len = rev_i.len();
                    let collapse = seg_is(rev_i, mi, bi, ELEM) && seg_is(rev_i, bi, i_len, ELEM);
                    let i_vanishes =
                        seg_is(rev_i, mi, bi, EMPTY) && seg_is(rev_i, bi, i_len, EMPTY);
                    if collapse {
                        rev_i.truncate(mi);
                        rev_i.push(ELEM);
                    } else if i_vanishes {
                        // Only reachable from non-canonical input; mirror the
                        // smart constructor of the boxed trie.
                        rev_i.truncate(mi);
                        rev_i.push(EMPTY);
                    } else {
                        rev_i.push(NODE);
                    }
                    match kind {
                        CombineKind::UpdateNode => {
                            let u_len = rev_u.len();
                            let u_elem =
                                seg_is(rev_u, mu, bu, ELEM) || seg_is(rev_u, bu, u_len, ELEM);
                            let u_vanishes =
                                seg_is(rev_u, mu, bu, EMPTY) && seg_is(rev_u, bu, u_len, EMPTY);
                            if collapse && u_elem {
                                rev_u.truncate(mu);
                                rev_u.push(ELEM);
                            } else if u_vanishes {
                                rev_u.truncate(mu);
                                rev_u.push(EMPTY);
                            } else {
                                rev_u.push(NODE);
                            }
                        }
                        CombineKind::UpdateLeaf(tag) => {
                            if emit_u {
                                rev_u.push(tag);
                            }
                        }
                    }
                }
            }
        }

        let pack = |rev: &[u8]| {
            let mut tags = TagVec::with_tag_capacity(rev.len());
            for &tag in rev.iter().rev() {
                tags.push(tag);
            }
            PackedName::from_tags(tags)
        };
        (pack(rev_u), pack(rev_i))
    }
}

enum Task {
    /// Reduce the pair of subtrees rooted at `ui` (None = virtual empty
    /// update) and `ii`, emitting the update result only when `emit_u`.
    Visit { ui: Option<usize>, ii: usize, emit_u: bool },
    /// Record the output lengths between the two child visits.
    Boundary,
    /// Combine the two child results into this node's result.
    Combine { kind: CombineKind, mu: usize, mi: usize, emit_u: bool },
}

/// The working vectors of the `reduce_pair` stack machine, pooled per
/// thread so the mechanism hot loop (one reduction per reducing join)
/// reuses their allocations instead of paying six `Vec` growth cycles per
/// call. Buffers are cleared, never shrunk: after warm-up a reduction of
/// any already-seen size allocates nothing but its two output tag arrays.
#[derive(Default)]
struct ReduceScratch {
    u_ends: Vec<u32>,
    i_ends: Vec<u32>,
    open: Vec<(u32, u8)>,
    rev_u: Vec<u8>,
    rev_i: Vec<u8>,
    boundaries: Vec<(usize, usize)>,
    tasks: Vec<Task>,
}

/// Buffers of the pooled subtree-end index: the `ends` table plus the
/// open-node stack [`TagsView::subtree_ends_into`] fills it with.
type LocateScratch = (Vec<u32>, Vec<(u32, u8)>);

/// The working vectors of the k-way merge of [`PackedName::cover_join_many`],
/// pooled per thread: per-input subtree-end tables, the shared open-node
/// stack, the cursor arena (`(input, position)` pairs) and the frame stack
/// (ranges of the arena). Cleared, never shrunk.
#[derive(Default)]
struct JoinManyScratch {
    ends: Vec<Vec<u32>>,
    open: Vec<(u32, u8)>,
    cursors: Vec<(u32, u32)>,
    /// `(cursor range start, length)`; a start of [`CLOSE_FRAME`] is a
    /// pending node close of the cover merge, at output index `length`.
    frames: Vec<(u32, u32)>,
}

/// The frame start marking a node close in [`JoinManyScratch::frames`].
const CLOSE_FRAME: u32 = u32::MAX;

thread_local! {
    static REDUCE_SCRATCH: core::cell::RefCell<ReduceScratch> =
        core::cell::RefCell::new(ReduceScratch::default());
    /// Pooled subtree-end index of [`PackedName::locate`]'s deep-query path
    /// (the skip index is rebuilt per query but its buffers are reused).
    static LOCATE_SCRATCH: core::cell::RefCell<LocateScratch> =
        const { core::cell::RefCell::new((Vec::new(), Vec::new())) };
    /// Pooled merge state of [`PackedName::cover_join_many`].
    static JOIN_MANY_SCRATCH: core::cell::RefCell<JoinManyScratch> =
        core::cell::RefCell::new(JoinManyScratch::default());
}

enum CombineKind {
    /// The update is an interior node here: its children were reduced too.
    UpdateNode,
    /// The update is `Empty`/`Elem` here (the tag is carried verbatim).
    UpdateLeaf(u8),
}

impl fmt::Display for PackedName {
    /// Displays the antichain the tags denote, in the paper's set notation.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_name())
    }
}

impl fmt::Debug for PackedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PackedName{}", self.to_name())
    }
}

impl From<&Name> for PackedName {
    fn from(name: &Name) -> Self {
        PackedName::from_name(name)
    }
}

impl From<Name> for PackedName {
    fn from(name: Name) -> Self {
        PackedName::from_name(&name)
    }
}

impl From<&PackedName> for Name {
    fn from(packed: &PackedName) -> Self {
        packed.to_name()
    }
}

impl From<PackedName> for Name {
    fn from(packed: PackedName) -> Self {
        packed.to_name()
    }
}

impl FromStr for PackedName {
    type Err = ParseNameError;

    /// Parses the same `{…}` syntax as [`Name`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(PackedName::from_name(&s.parse::<Name>()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name_like::NameLike;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn name(s: &str) -> Name {
        s.parse().expect("valid name literal")
    }

    fn packed(s: &str) -> PackedName {
        s.parse().expect("valid name literal")
    }

    const SAMPLES: &[&str] = &[
        "{}",
        "{ε}",
        "{0}",
        "{1}",
        "{0, 1}",
        "{01}",
        "{01, 1}",
        "{00, 011}",
        "{000, 011, 1}",
        "{00, 01, 10, 11}",
        "{000, 001, 01, 1}",
        "{0110, 0111, 010, 00, 1}",
    ];

    #[test]
    fn conversion_roundtrips() {
        for lit in SAMPLES {
            let n = name(lit);
            let p = PackedName::from_name(&n);
            assert_eq!(p.to_name(), n, "roundtrip failed for {lit}");
            let via_from: PackedName = PackedName::from(&n);
            assert_eq!(via_from, p);
            let back: Name = Name::from(&p);
            assert_eq!(back, n);
        }
    }

    #[test]
    fn agrees_with_name_on_all_operations() {
        for a in SAMPLES {
            for b in SAMPLES {
                let (na, nb) = (name(a), name(b));
                let (pa, pb) = (PackedName::from_name(&na), PackedName::from_name(&nb));
                assert_eq!(pa.leq(&pb), na.leq(&nb), "leq mismatch {a} vs {b}");
                assert_eq!(pa.lt(&pb), na.lt(&nb), "lt mismatch {a} vs {b}");
                assert_eq!(pa.relation(&pb), na.relation(&nb));
                assert_eq!(pa.join(&pb).to_name(), na.join(&nb), "join mismatch {a} ⊔ {b}");
            }
        }
    }

    #[test]
    fn append_matches_name_append() {
        for a in SAMPLES {
            for bit in [Bit::Zero, Bit::One] {
                let expected = name(a).append(bit);
                assert_eq!(packed(a).append(bit).to_name(), expected, "append mismatch {a}·{bit}");
            }
        }
    }

    #[test]
    fn fork_dot_matches_fork_plus_shallowest() {
        for a in SAMPLES {
            let p = packed(a);
            let (kept, dot) = p.fork_dot();
            assert_eq!(kept, p.append(Bit::Zero), "kept half mismatch for {a}");
            let spent = p.append(Bit::One);
            match spent.shallowest_string() {
                Some(s) => {
                    assert_eq!(dot, PackedName::singleton(&s), "dot mismatch for {a}");
                    if p.string_count() == 1 {
                        // A single-string spent id *is* its dot: the fused
                        // singleton must be byte-identical to the appended form.
                        assert_eq!(dot, spent, "single-string dot not canonical for {a}");
                    }
                }
                None => {
                    assert!(dot.is_empty(), "dot of empty name must be empty");
                    assert!(kept.is_empty());
                }
            }
        }
    }

    #[test]
    fn membership_and_domination_agree_with_name() {
        let strings = ["ε", "0", "1", "00", "01", "011", "0110", "10", "111"];
        for a in SAMPLES {
            let (n, p) = (name(a), packed(a));
            for s in strings {
                let bs: BitString = s.parse().unwrap();
                assert_eq!(p.contains(&bs), n.contains(&bs), "contains mismatch {a} / {s}");
                assert_eq!(
                    p.dominates_string(&bs),
                    n.dominates_string(&bs),
                    "dominates mismatch {a} / {s}"
                );
            }
        }
    }

    #[test]
    fn cached_metrics_agree_with_name() {
        for a in SAMPLES {
            let (n, p) = (name(a), packed(a));
            assert_eq!(p.string_count(), n.len(), "string_count mismatch for {a}");
            assert_eq!(p.bit_size(), n.bit_size(), "bit_size mismatch for {a}");
            assert_eq!(p.depth(), n.depth(), "depth mismatch for {a}");
            assert_eq!(p.node_count(), NameLike::tag_count(&n), "node_count mismatch for {a}");
        }
    }

    #[test]
    fn metrics_stay_cached_through_operations() {
        for a in SAMPLES {
            for b in SAMPLES {
                let joined = packed(a).join(&packed(b));
                let expected = name(a).join(&name(b));
                assert_eq!(joined.string_count(), expected.len());
                assert_eq!(joined.bit_size(), expected.bit_size());
                for bit in [Bit::Zero, Bit::One] {
                    let appended = joined.append(bit);
                    let expected = expected.append(bit);
                    assert_eq!(appended.string_count(), expected.len());
                    assert_eq!(appended.bit_size(), expected.bit_size());
                }
            }
        }
    }

    #[test]
    fn reduce_pair_matches_name_reduction() {
        for u in SAMPLES {
            for i in SAMPLES {
                // The rule is defined on reachable stamps (I1: u ⊑ i).
                if !packed(u).leq(&packed(i)) {
                    continue;
                }
                let (pu, pi) = PackedName::reduce_pair(&packed(u), &packed(i));
                let (nu, ni) = crate::simplify::reduce_name_pair(&name(u), &name(i));
                assert_eq!(pu.to_name(), nu, "reduce update mismatch ({u}, {i})");
                assert_eq!(pi.to_name(), ni, "reduce id mismatch ({u}, {i})");
                assert!(pu.leq(&packed(u)) && pi.leq(&packed(i)), "reduce grew ({u}, {i})");
                assert!(pu.leq(&pi), "I1 broken by reduce of ({u}, {i})");
                assert_eq!(PackedName::reduce_pair(&pu, &pi), (pu, pi), "not idempotent");
            }
        }
    }

    #[test]
    fn empty_and_epsilon() {
        assert!(PackedName::empty().is_empty());
        assert!(!PackedName::epsilon().is_empty());
        assert!(PackedName::epsilon().is_epsilon());
        assert!(!PackedName::empty().is_epsilon());
        assert_eq!(PackedName::empty().to_name(), Name::empty());
        assert_eq!(PackedName::epsilon().to_name(), Name::epsilon());
        assert_eq!(PackedName::default(), PackedName::empty());
    }

    #[test]
    fn inline_buffer_spills_transparently_past_capacity() {
        // A deep fork chain pushes the tag count far beyond INLINE_TAGS.
        let mut n = PackedName::epsilon();
        for i in 0..200 {
            n = n.append(if i % 2 == 0 { Bit::Zero } else { Bit::One });
        }
        assert_eq!(n.string_count(), 1);
        assert_eq!(n.bit_size(), 200);
        assert_eq!(n.depth(), 200);
        assert!(n.node_count() > INLINE_TAGS);
        let round = PackedName::from_name(&n.to_name());
        assert_eq!(round, n);
        // Equality and ordering still work across the spill boundary.
        assert!(PackedName::epsilon().leq(&n));
        assert!(!n.leq(&PackedName::epsilon()));
    }

    #[test]
    fn display_and_parse() {
        for lit in SAMPLES {
            assert_eq!(packed(lit).to_string(), name(lit).to_string());
        }
        assert!("{0,".parse::<PackedName>().is_err());
        let debug = format!("{:?}", packed("{0, 1}"));
        assert!(debug.contains("PackedName"));
    }

    #[test]
    fn swar_paths_agree_with_name_on_large_names() {
        // Names with hundreds of deep strings push the tag arrays far past
        // one u64 word, exercising the 32-tags-at-a-time block loops of
        // `leq` and `subtree_end` (`contains`/`dominates_string`/`join` all
        // route through the latter) including their padding-lane handling.
        let wide = |strings: usize, depth: usize, mut state: u64| {
            let mut out = Name::empty();
            while out.len() < strings {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let mut s = BitString::empty();
                for bit in 0..depth {
                    s.push(Bit::from((state >> (bit % 64)) & 1 == 1));
                }
                out.insert(s);
            }
            out
        };
        for (strings, depth) in [(64usize, 24usize), (200, 40), (333, 17)] {
            let na = wide(strings, depth, 0x2545_F491_4F6C_DD1D ^ strings as u64);
            let nb = wide(strings, depth, 0x9E37_79B9_7F4A_7C15 ^ depth as u64);
            let joined_n = na.join(&nb);
            let (pa, pb) = (PackedName::from_name(&na), PackedName::from_name(&nb));
            let joined_p = pa.join(&pb);
            assert_eq!(joined_p.to_name(), joined_n);
            assert!(pa.leq(&joined_p) && pb.leq(&joined_p));
            assert_eq!(pa.leq(&pb), na.leq(&nb));
            assert_eq!(joined_p.leq(&pa), joined_n.leq(&na));
            for s in na.iter().take(16) {
                assert_eq!(pb.contains(s), nb.contains(s));
                assert_eq!(pb.dominates_string(s), nb.dominates_string(s));
                assert_eq!(joined_p.dominates_string(s), joined_n.dominates_string(s));
                let parent = s.parent().expect("depth > 0");
                assert_eq!(pa.dominates_string(&parent), na.dominates_string(&parent));
            }
            // Perturb one string so leq exercises the mid-word fail/bail
            // exits, not just the lockstep path.
            let mut shrunk = joined_n.clone();
            let victim = joined_n.iter().next().expect("non-empty").clone();
            shrunk.remove(&victim);
            let shrunk_p = PackedName::from_name(&shrunk);
            assert_eq!(shrunk_p.leq(&joined_p), shrunk.leq(&joined_n));
            assert_eq!(joined_p.leq(&shrunk_p), joined_n.leq(&shrunk));
        }
    }

    #[test]
    fn leq_padded_tail_handles_every_size_boundary() {
        // Names sized around the 32-tag word boundary (the padded byte-tail
        // regime) and across the inline/heap spill: the wide-word loop must
        // agree with the set representation at every shape.
        let chain = |len: usize, bias: u64| {
            let mut n = Name::empty();
            let mut s = BitString::empty();
            for i in 0..len {
                s.push(Bit::from((bias >> (i % 7)) & 1 == 1));
                let mut t = s.clone();
                t.push(Bit::from((bias >> (i % 5)) & 1 == 0));
                n.insert(t);
            }
            n
        };
        for len in [1usize, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 40, 63, 64, 65] {
            let na = chain(len, 0b1011_0110);
            let nb = chain(len + 2, 0b1011_0110);
            let nc = chain(len, 0b0110_1001);
            let (pa, pb, pc) = (
                PackedName::from_name(&na),
                PackedName::from_name(&nb),
                PackedName::from_name(&nc),
            );
            assert_eq!(pa.leq(&pb), na.leq(&nb), "leq mismatch at len {len}");
            assert_eq!(pb.leq(&pa), nb.leq(&na), "reverse leq mismatch at len {len}");
            assert_eq!(pa.leq(&pc), na.leq(&nc), "cross leq mismatch at len {len}");
            let joined = pa.join(&pc);
            assert!(pa.leq(&joined) && pc.leq(&joined), "join bound broken at len {len}");
            assert_eq!(joined.to_name(), na.join(&nc));
        }
    }

    #[test]
    fn pooled_buffers_recycle_across_spilled_values() {
        // Drop a bunch of spilled names, then build new ones: the pool path
        // must produce byte-identical values (equality is structural).
        let build = || {
            let mut n = PackedName::epsilon();
            for i in 0..120 {
                n = n.append(if i % 3 == 0 { Bit::One } else { Bit::Zero });
            }
            n
        };
        let reference = build();
        for _ in 0..8 {
            let fresh = build();
            assert_eq!(fresh, reference);
            assert_eq!(fresh.clone(), reference);
            drop(fresh);
        }
        let again = build();
        assert_eq!(again.to_name(), reference.to_name());
    }

    #[test]
    fn shallowest_string_and_singleton_agree_with_name() {
        assert_eq!(PackedName::empty().shallowest_string(), None);
        for lit in SAMPLES {
            let (n, p) = (name(lit), packed(lit));
            let expected = n.iter().min_by_key(|s| s.len()).cloned();
            assert_eq!(p.shallowest_string(), expected, "shallowest mismatch for {lit}");
        }
        // Shallower strings on later (one-side) branches must win over an
        // earlier deeper leftmost string.
        let tricky = packed("{000, 0010, 01}");
        assert_eq!(tricky.shallowest_string(), Some("01".parse().unwrap()));
        for s in ["ε", "0", "1", "01", "110", "0010", "11111"] {
            let bs: BitString = s.parse().unwrap();
            let single = PackedName::singleton(&bs);
            assert_eq!(single.to_name(), Name::from_string(bs.clone()));
            assert_eq!(single.string_count(), 1);
            assert_eq!(single.bit_size(), bs.len());
            assert_eq!(single.shallowest_string(), Some(bs));
        }
    }

    #[test]
    fn skip_index_locate_agrees_with_shallow_walk() {
        // A spilled name (beyond INLINE_TAGS) plus queries deeper than the
        // skip-index threshold exercise the indexed path of `locate`.
        let mut n = Name::empty();
        let mut spine = BitString::empty();
        for i in 0..40 {
            let mut s = spine.clone();
            s.push(if i % 3 == 0 { Bit::Zero } else { Bit::One });
            n.insert(s);
            spine.push(if i % 3 == 0 { Bit::One } else { Bit::Zero });
        }
        n.insert(spine.clone());
        let p = PackedName::from_name(&n);
        assert!(p.node_count() > INLINE_TAGS);
        for s in n.iter() {
            assert!(p.contains(s) && p.dominates_string(s));
            let mut deeper = s.clone();
            deeper.push(Bit::One);
            assert!(!p.contains(&deeper));
            assert_eq!(p.dominates_string(&deeper), n.dominates_string(&deeper));
            if let Some(parent) = s.parent() {
                assert_eq!(p.contains(&parent), n.contains(&parent));
                assert_eq!(p.dominates_string(&parent), n.dominates_string(&parent));
            }
        }
    }

    #[test]
    fn encoded_bits_swar_matches_per_tag_count() {
        let mut big = Name::empty();
        let mut s = BitString::empty();
        for i in 0..150 {
            s.push(if i % 2 == 0 { Bit::Zero } else { Bit::One });
            // Branch off with the bit the next round will *not* take, so
            // the inserted strings stay a genuine antichain.
            let mut t = s.clone();
            t.push(if (i + 1) % 2 == 0 { Bit::One } else { Bit::Zero });
            big.insert(t);
        }
        for p in [packed("{}"), packed("{ε}"), packed("{00, 011, 1}"), PackedName::from_name(&big)]
        {
            let expected: usize =
                (0..p.node_count()).map(|i| if p.tag(i) == EMPTY { 1 } else { 2 }).sum();
            assert_eq!(p.encoded_bits(), expected);
        }
    }

    /// The region a name covers, as its set of strings of length `depth`
    /// (exact for names no deeper than `depth`).
    fn region(n: &Name, depth: usize) -> BTreeSet<BitString> {
        (0..1u32 << depth)
            .map(|leaf| (0..depth).map(|k| Bit::from(leaf >> (depth - 1 - k) & 1 == 1)).collect())
            .filter(|leaf: &BitString| n.iter().any(|s| s.is_prefix_of(leaf)))
            .collect()
    }

    /// The reference cover-canonical clock of a region: a fully covered
    /// subtree is one string, an uncovered one none.
    fn canonical_cover(leaves: &BTreeSet<BitString>, depth: usize) -> Name {
        fn walk(leaves: &BTreeSet<BitString>, prefix: BitString, depth: usize, out: &mut Name) {
            let under = leaves.iter().filter(|leaf| prefix.is_prefix_of(leaf)).count();
            if under == 1 << (depth - prefix.len()) {
                out.insert(prefix);
            } else if under > 0 {
                walk(leaves, prefix.child(Bit::Zero), depth, out);
                walk(leaves, prefix.child(Bit::One), depth, out);
            }
        }
        let mut out = Name::empty();
        walk(leaves, BitString::empty(), depth, &mut out);
        out
    }

    /// Depth of the reference regions: one more than the deepest string
    /// the cover tests build (a mint splits a 3-bit string 3 levels).
    const COVER_DEPTH: usize = 8;

    fn cover(lit: &str) -> PackedName {
        PackedName::from_name(&canonical_cover(&region(&name(lit), COVER_DEPTH), COVER_DEPTH))
    }

    #[test]
    fn cover_operations_agree_with_regions_on_samples() {
        for a in SAMPLES {
            for b in SAMPLES {
                let (pa, pb) = (cover(a), cover(b));
                let (ra, rb) =
                    (region(&pa.to_name(), COVER_DEPTH), region(&pb.to_name(), COVER_DEPTH));
                assert_eq!(pa.cover_leq(&pb), ra.is_subset(&rb), "cover_leq {a} vs {b}");
                let union: BTreeSet<BitString> = ra.union(&rb).cloned().collect();
                let joined = pa.cover_join(&pb);
                assert_eq!(joined.to_name(), canonical_cover(&union, COVER_DEPTH), "{a} ∨ {b}");
                assert!(joined.is_cover_canonical());
            }
        }
        // Merged siblings: the case Definition 4.1 orders backwards.
        let (half, merged) = (packed("{00}"), packed("{00}").cover_join(&packed("{01}")));
        assert_eq!(merged, packed("{0}"));
        assert_eq!(half.cover_relation(&merged), Relation::Dominated);
        assert_eq!(half.relation(&merged), Relation::Dominates);
        assert_eq!(PackedName::empty().cover_relation(&half), Relation::Dominated);
        assert_eq!(PackedName::epsilon().cover_relation(&merged), Relation::Dominates);
        assert!(!packed("{0, 1}").is_cover_canonical());
        assert!(!packed("{10, 110, 111}").is_cover_canonical());
        assert!(packed("{10, 111}").is_cover_canonical());
    }

    #[test]
    fn cover_join_merges_up_through_spilled_buffers() {
        // 128 sibling leaves at depth 7 spill past the inline buffer, and
        // their union cascades all the way to ε.
        let leaves: Vec<PackedName> = (0..128u32)
            .map(|leaf| {
                PackedName::singleton(
                    &(0..7).map(|k| Bit::from(leaf >> (6 - k) & 1 == 1)).collect(),
                )
            })
            .collect();
        let (evens, odds): (Vec<_>, Vec<_>) = leaves
            .iter()
            .partition(|l| l.shallowest_string().expect("a leaf").last() == Some(Bit::Zero));
        let (evens, odds) = (PackedName::cover_join_many(evens), PackedName::cover_join_many(odds));
        assert!(evens.node_count() > INLINE_TAGS);
        assert_eq!(evens.cover_join(&odds), PackedName::epsilon());
        assert_eq!(PackedName::cover_join_many(&leaves), PackedName::epsilon());
        let mut folded = PackedName::empty();
        for leaf in &leaves {
            folded = folded.cover_join(leaf);
            assert!(folded.is_cover_canonical());
        }
        // Every fourth leaf has no sibling; adding leaf 4k+1 makes one
        // sibling pair, at a tag offset that moves through every scan
        // window of the canonical check and across its boundaries.
        let sparse = |extra: Option<usize>| {
            PackedName::from_name(&Name::from_strings(
                leaves
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i % 4 == 0 || Some(i) == extra)
                    .map(|(_, leaf)| leaf.shallowest_string().expect("a leaf")),
            ))
        };
        assert!(sparse(None).node_count() > INLINE_TAGS);
        assert!(sparse(None).is_cover_canonical());
        for k in 0..32 {
            assert!(!sparse(Some(4 * k + 1)).is_cover_canonical(), "pair {k}");
            assert!(sparse(Some(4 * k + 2)).is_cover_canonical(), "no pair {k}");
        }
        assert_eq!(folded, PackedName::epsilon());
    }

    #[test]
    fn cover_walk_word_loop_agrees_with_the_join_on_large_clocks() {
        // Long write chains from two forked elements, with the second
        // chain reading the first now and then: clocks of hundreds of tags
        // that share long identical prefixes, so the walk's word-at-a-time
        // lockstep runs, and stops at every size and alignment boundary.
        // `a ≤ b` iff `a ∨ b = b` is the reference.
        let mut elements =
            [PackedName::from_name(&name("{0}")), PackedName::from_name(&name("{1}"))];
        let mut chains = [PackedName::empty(), PackedName::empty()];
        let mut clocks = Vec::new();
        for step in 0..600usize {
            let at = step % 2;
            let (kept, dot) = elements[at].mint_dot();
            elements[at] = kept;
            let mut clock = chains[at].cover_join(&dot);
            if step % 7 == 0 {
                clock = clock.cover_join(&chains[1 - at]);
            }
            chains[at] = clock.clone();
            clocks.push(clock);
        }
        assert!(clocks.iter().any(|clock| clock.node_count() > 2 * INLINE_TAGS));
        for (i, a) in clocks.iter().enumerate().step_by(7) {
            for b in clocks.iter().skip(i % 5).step_by(5) {
                let (le, ge) = (a.cover_join(b) == *b, b.cover_join(a) == *a);
                assert_eq!(a.cover_leq(b), le, "{a} ≤ {b}");
                assert_eq!(a.cover_relation(b), Relation::from_leq(le, ge));
            }
        }
    }

    /// The first 8 dots a write chain mints from `{ε}`, and the canonical
    /// clock (the cover join of the dots so far) after each, with its
    /// byte-aligned wire bytes.
    #[test]
    fn mint_dot_golden_chain_from_epsilon() {
        use crate::codec::{StampCodec, VarintCodec};
        let golden: [(&str, &str, &[u8]); 8] = [
            ("0", "{0}", &[0x03, 0x06]),
            ("10", "{0, 10}", &[0x05, 0x66, 0x00]),
            ("1100", "{0, 10, 1100}", &[0x09, 0x66, 0x1a, 0x00]),
            ("1101", "{0, 10, 110}", &[0x07, 0x66, 0x06]),
            ("111000", "{0, 10, 110, 111000}", &[0x0d, 0x66, 0xa6, 0x06, 0x00]),
            ("111001", "{0, 10, 110, 11100}", &[0x0b, 0x66, 0xa6, 0x01]),
            ("11101", "{0, 10, 110, 1110}", &[0x09, 0x66, 0x66, 0x00]),
            ("11110000", "{0, 10, 110, 1110, 11110000}", &[0x11, 0x66, 0x66, 0xaa, 0x01, 0x00]),
        ];
        let mut element = PackedName::epsilon();
        let mut clock = PackedName::empty();
        for (step, (dot_lit, clock_lit, bytes)) in golden.iter().enumerate() {
            let (kept, dot) = element.mint_dot();
            assert_eq!(dot.to_string(), format!("{{{dot_lit}}}"), "dot {step}");
            clock = clock.cover_join(&dot);
            assert_eq!(clock, packed(clock_lit), "clock {step}");
            assert_eq!(&StampCodec::<PackedName>::encode_name(&VarintCodec, &clock), bytes);
            element = kept;
        }
        assert_eq!(element, packed("{11110001, 1111001, 111101, 11111}"));
    }

    #[test]
    fn hash_and_eq_are_structural() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        for lit in SAMPLES {
            let a = packed(lit);
            let b = PackedName::from_name(&name(lit));
            assert_eq!(a, b);
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            assert_eq!(ha.finish(), hb.finish(), "hash mismatch for {lit}");
        }
    }

    /// Strategy: a cover-canonical clock no deeper than 6 bits, built from
    /// arbitrary strings through the reference normal form.
    fn clock() -> impl Strategy<Value = PackedName> {
        prop::collection::vec(prop::collection::vec(any::<bool>(), 0..=6), 0..=7).prop_map(
            |strings| {
                let n = Name::from_strings(
                    strings.into_iter().map(|bits| bits.into_iter().map(Bit::from).collect()),
                );
                PackedName::from_name(&canonical_cover(&region(&n, COVER_DEPTH), COVER_DEPTH))
            },
        )
    }

    /// Strategy: an arbitrary (Definition 4.1 canonical) element no deeper
    /// than 4 bits, so a mint stays inside the reference depth.
    fn element() -> impl Strategy<Value = PackedName> {
        prop::collection::vec(prop::collection::vec(any::<bool>(), 0..=4), 1..=5).prop_map(
            |strings| {
                PackedName::from_name(&Name::from_strings(
                    strings.into_iter().map(|bits| bits.into_iter().map(Bit::from).collect()),
                ))
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `cover_leq`, `cover_relation`, `cover_join`, `cover_join_many`
        /// and `is_cover_canonical` agree with regions of `Name` strings.
        #[test]
        fn cover_operations_agree_with_the_region_reference(
            a in clock(), b in clock(), c in clock()
        ) {
            let [ra, rb, rc] = [&a, &b, &c].map(|x| region(&x.to_name(), COVER_DEPTH));
            prop_assert!(a.is_cover_canonical());
            prop_assert_eq!(a.cover_leq(&b), ra.is_subset(&rb));
            let expected = Relation::from_leq(ra.is_subset(&rb), rb.is_subset(&ra));
            prop_assert_eq!(a.cover_relation(&b), expected);
            let ab: BTreeSet<BitString> = ra.union(&rb).cloned().collect();
            let joined = a.cover_join(&b);
            prop_assert_eq!(joined.to_name(), canonical_cover(&ab, COVER_DEPTH));
            prop_assert_eq!(
                (joined.string_count(), joined.bit_size()),
                (joined.to_name().len(), joined.to_name().bit_size())
            );
            let abc: BTreeSet<BitString> = ab.union(&rc).cloned().collect();
            let all = PackedName::cover_join_many([&a, &b, &c]);
            prop_assert_eq!(all.to_name(), canonical_cover(&abc, COVER_DEPTH));
            prop_assert_eq!(all, joined.cover_join(&c));
            // Equal regions are equal bytes.
            prop_assert_eq!(ra == rb, a == b);
        }

        /// `split_last` removes exactly the last string in preorder.
        #[test]
        fn split_last_removes_the_rightmost_string(e in element()) {
            let mut strings = e.strings();
            match e.split_last() {
                None => prop_assert!(strings.len() < 2),
                Some((rest, last)) => {
                    let expected = strings.pop().expect("two strings or more");
                    prop_assert_eq!(last, PackedName::singleton(&expected));
                    prop_assert_eq!(&rest, &PackedName::from_name(&Name::from_strings(strings)));
                    prop_assert_eq!(
                        (rest.string_count(), rest.bit_size()),
                        (rest.to_name().len(), rest.to_name().bit_size())
                    );
                }
            }
        }

        /// A cover-canonical name never has sibling elements; any other
        /// name with a full sibling pair is refused.
        #[test]
        fn is_cover_canonical_matches_the_reference(n in element()) {
            let canonical = canonical_cover(&region(&n.to_name(), COVER_DEPTH), COVER_DEPTH);
            prop_assert_eq!(n.is_cover_canonical(), n.to_name() == canonical);
        }

        /// A mint spends one string of the element: the dot and the kept
        /// part are disjoint, their union is the element's region, the
        /// cached metrics are exact, and the split depth is the one the
        /// mint documents.
        #[test]
        fn mint_dot_splits_the_element_into_kept_and_dot(e in element()) {
            let (kept, dot) = e.mint_dot();
            prop_assert_eq!(dot.string_count(), 1);
            let (re, rk, rd) = (
                region(&e.to_name(), COVER_DEPTH),
                region(&kept.to_name(), COVER_DEPTH),
                region(&dot.to_name(), COVER_DEPTH),
            );
            prop_assert!(rk.is_disjoint(&rd));
            prop_assert_eq!(rk.union(&rd).cloned().collect::<BTreeSet<_>>(), re);
            let d = dot.shallowest_string().expect("a dot");
            prop_assert!(kept.strings().iter().all(|s| s.is_incomparable_with(&d)));
            prop_assert_eq!(PackedName::from_name(&kept.to_name()), kept.clone());
            prop_assert_eq!(
                (kept.string_count(), kept.bit_size()),
                (kept.to_name().len(), kept.to_name().bit_size())
            );
            let leftmost = e.strings()[0].clone();
            prop_assert!(leftmost.is_prefix_of(&d));
            prop_assert!(d.iter().skip(leftmost.len()).all(|bit| bit == Bit::Zero));
            let ones = leftmost.iter().fold(0, |run, bit| if bit == Bit::One { run + 1 } else { 0 });
            let expected_depth = if e.string_count() == 1 {
                leftmost.len() + ones.max(1)
            } else {
                e.depth()
            };
            prop_assert_eq!(d.len(), expected_depth);
        }
    }
}
