//! The run's buffers: one slot per declared buffer, owned or lent.
//!
//! A run's slots follow [`pdac_simnet::Schedule::bufs`] order. A slot is
//! either owned by the run (a `Vec<u8>` the result hands back) or lent by
//! the caller for the duration of one [`crate::ThreadExecutor`] call — read
//! only (`&[u8]`) or writable (`&mut [u8]`). Every worker of the run reads
//! and writes the slots concurrently, without a lock: ops take range
//! slices through [`Arena::read`] and [`Arena::write`], each confined to
//! the closure it is handed to.
//!
//! This module forms every slice of the data path from a raw pointer. Its
//! constructor and accessors are `unsafe fn`: a caller promises the run
//! discipline below, which the arena cannot check, and the executor states
//! at each call which part of it holds. What the arena can check — bounds
//! and writability — it asserts.
//!
//! # Safety
//!
//! Each slot's base pointer and length are taken once, in [`Arena::new`],
//! before any worker starts. An access forms a slice of exactly the named
//! range with `slice::from_raw_parts(_mut)(base.add(off), len)`, after a
//! bounds check against the slot's length; nothing ever holds a reference
//! to a whole buffer while workers run, and a slice does not outlive the
//! closure it is lent to. Two slices that exist at once therefore alias
//! only if two live ops name overlapping bytes, and that never happens
//! with one of them writing:
//!
//! * **Distinct ops.** `Schedule::lower` runs the race check
//!   (`check_write_races`), which rejects a schedule with any pair of
//!   overlapping accesses to one buffer, at least one a write, that no
//!   dependency path orders. An op starts only after it has seen every
//!   dependency's `done` flag with an `Acquire` load, and a dependency's
//!   flag is `Release`-stored after its last byte was written; the chain
//!   of such pairs orders every racing pair the check accepted.
//! * **One op.** The race check does not pair an op with itself, so a
//!   copy whose source and destination overlap in one buffer passes it.
//!   The executor stages every copy: it reads the source into its staging
//!   buffer in one `read` and writes the destination in a later `write`,
//!   so one op never holds two slices at once.
//! * **Where the bytes come from.** A one-sided pull reads the range the
//!   transport resolved; the executor fails the op unless that is exactly
//!   the range the op names, so the race check saw every byte it reads.
//! * **Read-only lends.** A `&[u8]` lend is never written: the executor
//!   copies a lend of a slot that some op writes (`Lowered::written`)
//!   into an owned slot, and [`Arena::write`] asserts the slot is
//!   writable.
//! * **Lent memory outlives every access.** The arena erases the lends'
//!   lifetime so the run's shared state can be `'static` for the worker
//!   threads. The executor borrows the lends for the whole call, and the
//!   call returns only after `Arc::into_inner` took the run state back,
//!   which needs every worker's share of it released. On the panic path
//!   the worker pool re-raises a job's panic only after the last job of
//!   the run has returned, and it spawns every helper a run needs before
//!   handing out the first job, so a refused spawn unwinds with no job
//!   started. No worker can touch a slot once the borrow ends, either way.

use std::fmt;

/// One buffer's memory for one run.
pub(crate) enum Memory<'a> {
    /// Bytes the run owns and returns in its result.
    Owned(Vec<u8>),
    /// The caller's bytes, read and never written.
    Read(&'a [u8]),
    /// The caller's bytes, read and written in place.
    Write(&'a mut [u8]),
}

impl Memory<'_> {
    /// Bytes of the buffer.
    pub(crate) fn len(&self) -> usize {
        match self {
            Memory::Owned(bytes) => bytes.len(),
            Memory::Read(bytes) => bytes.len(),
            Memory::Write(bytes) => bytes.len(),
        }
    }
}

/// A slot: where its bytes start, how many there are, and whether the run
/// may write them.
struct Slot {
    base: *mut u8,
    len: usize,
    writable: bool,
    /// The owned bytes `base` points into; `None` for a lend.
    owned: Option<Vec<u8>>,
}

/// The slots of one run, shared by its workers.
pub(crate) struct Arena {
    slots: Vec<Slot>,
}

// SAFETY: an `Arena` is a table of pointers into memory that outlives the
// run (module doc, last point). The workers that share it access only
// disjoint or read-shared ranges at any one time (module doc), which is
// what `Send + Sync` on `[u8]` slices requires.
unsafe impl Send for Arena {}
// SAFETY: as for `Send` above.
unsafe impl Sync for Arena {}

impl Arena {
    /// Takes every slot's base pointer, once.
    ///
    /// # Safety
    /// The returned arena has no lifetime: the caller must keep every lend
    /// borrowed, and touch it through nothing but the arena, until the
    /// arena is consumed by [`Self::into_owned`] or dropped.
    pub(crate) unsafe fn new<'a>(memory: impl IntoIterator<Item = Memory<'a>>) -> Arena {
        let slots = memory
            .into_iter()
            .map(|m| match m {
                Memory::Owned(mut bytes) => Slot {
                    base: bytes.as_mut_ptr(),
                    len: bytes.len(),
                    writable: true,
                    owned: Some(bytes),
                },
                Memory::Read(bytes) => Slot {
                    base: bytes.as_ptr().cast_mut(),
                    len: bytes.len(),
                    writable: false,
                    owned: None,
                },
                Memory::Write(bytes) => {
                    Slot { base: bytes.as_mut_ptr(), len: bytes.len(), writable: true, owned: None }
                }
            })
            .collect();
        Arena { slots }
    }

    /// The slot's base pointer offset to `off`, after checking that
    /// `off..off + len` lies inside it.
    fn at(&self, slot: usize, off: usize, len: usize, write: bool) -> *mut u8 {
        let s = &self.slots[slot];
        assert!(
            off.checked_add(len).is_some_and(|end| end <= s.len),
            "range {off}+{len} outside slot {slot} of {} bytes",
            s.len
        );
        assert!(s.writable || !write, "slot {slot} is lent read-only");
        // SAFETY: `off <= s.len`, so the offset stays inside (or one past)
        // the slot's allocation.
        unsafe { s.base.add(off) }
    }

    /// Lends `f` the `len` bytes at `off` of `slot`, read only.
    ///
    /// # Safety
    /// Nothing writes any of these bytes while `f` runs.
    ///
    /// # Panics
    /// If the range lies outside the slot.
    pub(crate) unsafe fn read<R>(
        &self,
        slot: usize,
        off: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        let p = self.at(slot, off, len, false);
        // SAFETY: in bounds (checked in `at`); nothing writes these bytes
        // meanwhile (the caller's promise).
        f(unsafe { std::slice::from_raw_parts(p, len) })
    }

    /// Lends `f` the `len` bytes at `off` of `slot`, writable.
    ///
    /// # Safety
    /// Nothing else reads or writes any of these bytes while `f` runs.
    ///
    /// # Panics
    /// If the range lies outside the slot or the slot is lent read-only.
    pub(crate) unsafe fn write<R>(
        &self,
        slot: usize,
        off: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> R {
        let p = self.at(slot, off, len, true);
        // SAFETY: in bounds and writable (checked in `at`); nothing else
        // touches these bytes meanwhile (the caller's promise).
        f(unsafe { std::slice::from_raw_parts_mut(p, len) })
    }

    /// Consumes the arena, returning every owned slot's bytes with its
    /// slot index; lent slots are left out.
    pub(crate) fn into_owned(self) -> impl Iterator<Item = (usize, Vec<u8>)> {
        self.slots.into_iter().enumerate().filter_map(|(i, s)| s.owned.map(|b| (i, b)))
    }
}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena").field("slots", &self.slots.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tests access their arenas from one thread, one range at a time,
    // and every lend outlives its arena: that is the whole run discipline.

    #[test]
    fn ranges_read_and_write_owned_and_lent_slots_in_place() {
        let (mut lent, shown) = (vec![0u8; 8], [7u8; 4]);
        let memory =
            [Memory::Owned((0..16).collect()), Memory::Read(&shown), Memory::Write(&mut lent)];
        // SAFETY: one thread, and the lends outlive the arena.
        let arena = unsafe { Arena::new(memory) };
        // SAFETY: one thread; each write's range is disjoint from the
        // read it nests in.
        unsafe {
            arena.read(0, 10, 4, |s| arena.write(2, 2, 4, |d| d.copy_from_slice(s)));
            arena.read(0, 8, 8, |s| arena.write(0, 0, 8, |d| d.copy_from_slice(s)));
            arena.read(1, 1, 3, |s| assert_eq!(s, [7, 7, 7]));
            arena.write(2, 7, 1, |d| d[0] = 9);
        }
        let owned: Vec<(usize, Vec<u8>)> = arena.into_owned().collect();
        let want: Vec<u8> = (8..16).chain(8..16).collect();
        assert_eq!(owned, vec![(0, want)]);
        assert_eq!(lent, [0, 0, 10, 11, 12, 13, 0, 9]);
    }

    #[test]
    #[should_panic(expected = "lent read-only")]
    fn a_read_only_lend_is_never_written() {
        let shown = [0u8; 4];
        // SAFETY: one thread, and the lend outlives the arena.
        unsafe { Arena::new([Memory::Read(&shown)]).write(0, 0, 1, |d| d[0] = 1) };
    }

    #[test]
    #[should_panic(expected = "outside slot")]
    fn a_range_past_the_slot_is_refused() {
        // SAFETY: one thread, and the arena owns its only slot.
        unsafe { Arena::new([Memory::Owned(vec![0; 8])]).read(0, 6, 4, |_| ()) };
    }
}
