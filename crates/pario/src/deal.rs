//! Dealing a record stream onto the disks: how the training data comes to
//! be "initially distributed at random among the p processors" (a
//! round-robin deal) and how request shards are staged (a deal of
//! contiguous shares). Both are uncharged: the data is resident before a
//! run starts.
//!
//! The work runs in two lanes. A scoped helper thread pulls records from
//! the stream and encodes each into its rank's [`RecBuf`]; the calling
//! thread reads every full batch back in stream order (for the caller's
//! visitor: a reservoir, class counts) and appends each rank's buffer to
//! its file with [`NodeDisk::append_chunk_uncharged`]. Two batches (see
//! [`BATCH_RECORDS`]) alternate through two bounded channels: at most two
//! batches are alive, both allocated at full size by the calling thread
//! before the helper starts, and nothing is allocated per batch. The
//! appends stay on the calling thread too: a file's extents are then
//! allocated where every other extent of the farm is, not in a second
//! allocator arena.
//!
//! A panic on either lane ends the deal with that panic: a panicking stream
//! closes the helper's end of the channels, a panicking append or visitor
//! closes the caller's, and the other lane stops at its next send or
//! receive.
//!
//! [`NodeDisk::append_chunk_uncharged`]: crate::NodeDisk::append_chunk_uncharged

use std::panic::resume_unwind;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread;

use crate::disk::TypedFile;
use crate::farm::DiskFarm;
use crate::rec::{Rec, RecBuf};

/// Records in one round-robin batch, across all ranks. Each rank's buffer
/// holds `BATCH_RECORDS / p` of them (at least one), so a round-robin batch
/// starts on rank 0. A batch of shares is one such buffer of one rank's
/// records, and ends early where that rank's share does.
pub const BATCH_RECORDS: usize = 32_768;

/// How [`deal_stream`] assigns the records of a stream to ranks.
#[derive(Debug, Clone, Copy)]
pub enum Deal<'a> {
    /// Record `i` goes to rank `i % p`.
    RoundRobin,
    /// Rank `r` receives the next `shares[r]` records, in rank order. The
    /// stream is read no further than the shares' sum.
    Shares(&'a [u64]),
}

/// One batch: `bufs[k]` holds rank `first + k`'s records, as file bytes.
/// A round-robin batch has a buffer per rank, a batch of shares one.
struct Batch<R> {
    first: usize,
    bufs: Vec<RecBuf<R>>,
}

/// Create file `name` on every disk of `farm` and deal `records` onto
/// them as `deal` says, calling `visit` on every record in stream order.
/// Returns the number of records dealt to each rank.
///
/// The stream is pulled and encoded on a helper thread while the calling
/// thread visits and appends (see the [module docs](self)); the files, the
/// visits and the counts are those of a plain loop over the stream.
///
/// ```
/// use pdc_pario::{deal_stream, Deal, DiskFarm};
///
/// let farm = DiskFarm::in_memory(3);
/// let mut seen = Vec::new();
/// let dealt = deal_stream(&farm, "data", 0..7u64, Deal::RoundRobin, |x| seen.push(x));
/// assert_eq!(dealt, vec![3, 2, 2]);
/// assert_eq!(seen, (0..7).collect::<Vec<_>>());
/// let mut disk = farm.lock(1);
/// let file = disk.open::<u64>("data");
/// assert_eq!(disk.read_all_uncharged(&file), vec![1, 4]);
/// ```
pub fn deal_stream<R, I>(
    farm: &DiskFarm,
    name: &str,
    records: I,
    deal: Deal<'_>,
    mut visit: impl FnMut(R),
) -> Vec<u64>
where
    R: Rec,
    I: IntoIterator<Item = R>,
    I::IntoIter: Send,
{
    let p = farm.nprocs();
    assert!(p > 0, "pario: cannot deal a stream onto a farm of no disks");
    if let Deal::Shares(shares) = deal {
        assert_eq!(shares.len(), p, "pario: {} shares for {p} disks", shares.len());
    }
    let files: Vec<TypedFile<R>> = (0..p).map(|rank| farm.lock(rank).create(name)).collect();
    let mut dealt = vec![0u64; p];
    let records = records.into_iter();
    let room = (BATCH_RECORDS / p).max(1);
    thread::scope(|scope| {
        let (full_tx, full_rx) = sync_channel::<Batch<R>>(2);
        let (empty_tx, empty_rx) = sync_channel::<Batch<R>>(2);
        let width = match deal {
            Deal::RoundRobin => p,
            Deal::Shares(_) => 1,
        };
        // Sized up front, on this thread: the helper never grows a buffer
        // (regrowing them cost it 9.3 against 6.4 ms of CPU in a
        // 90 000-record load at p = 64).
        for _ in 0..2 {
            let bufs = (0..width).map(|_| RecBuf::with_capacity(room)).collect();
            let batch = Batch { first: 0, bufs };
            empty_tx.send(batch).expect("the receiver is held here");
        }
        let helper = scope.spawn(move || fill(records, deal, room, empty_rx, full_tx));
        // Ends when the helper drops its sender: the stream is done or it
        // panicked.
        for mut batch in full_rx.iter() {
            read_back(&batch.bufs, &mut visit);
            for (k, buf) in batch.bufs.iter_mut().enumerate() {
                let rank = batch.first + k;
                farm.lock(rank).append_chunk_uncharged(&files[rank], buf.view());
                dealt[rank] += buf.len() as u64;
                buf.clear();
            }
            // Fails only once the helper has finished; the batch is dropped.
            let _ = empty_tx.send(batch);
        }
        if let Err(panic) = helper.join() {
            resume_unwind(panic);
        }
    });
    dealt
}

/// The helper's lane: fill each empty batch from the stream and hand it
/// over, until the stream (or the deal) ends or the caller has gone.
fn fill<R: Rec>(
    mut records: impl Iterator<Item = R>,
    deal: Deal<'_>,
    room: usize,
    empty: Receiver<Batch<R>>,
    full: SyncSender<Batch<R>>,
) {
    // Shares: the rank being filled and how many records it still takes.
    let mut rank = 0;
    let mut left = match deal {
        Deal::RoundRobin => 0,
        Deal::Shares(shares) => shares[0],
    };
    while let Ok(mut batch) = empty.recv() {
        let more = match deal {
            Deal::RoundRobin => fill_round_robin(&mut records, &mut batch.bufs, room),
            Deal::Shares(shares) => {
                fill_shares(&mut records, &mut batch, room, shares, &mut rank, &mut left)
            }
        };
        let any = batch.bufs.iter().any(|buf| !buf.is_empty());
        if (any && full.send(batch).is_err()) || !more {
            return;
        }
    }
}

/// Deal `room` whole rounds of `p` records; false once the stream has
/// ended.
fn fill_round_robin<R: Rec>(
    records: &mut impl Iterator<Item = R>,
    bufs: &mut [RecBuf<R>],
    room: usize,
) -> bool {
    for _ in 0..room {
        for buf in bufs.iter_mut() {
            match records.next() {
                Some(r) => buf.push(&r),
                None => return false,
            }
        }
    }
    true
}

/// Fill the batch with up to `room` records of the first rank, from `rank`
/// on, whose share is not yet full (`rank` still takes `left`); false once
/// the stream or the shares have ended.
fn fill_shares<R: Rec>(
    records: &mut impl Iterator<Item = R>,
    batch: &mut Batch<R>,
    room: usize,
    shares: &[u64],
    rank: &mut usize,
    left: &mut u64,
) -> bool {
    while *left == 0 {
        *rank += 1;
        let Some(&share) = shares.get(*rank) else {
            return false;
        };
        *left = share;
    }
    batch.first = *rank;
    let take = (room as u64).min(*left);
    *left -= take;
    for _ in 0..take {
        match records.next() {
            Some(r) => batch.bufs[0].push(&r),
            None => return false,
        }
    }
    true
}

/// Visit a batch's records in stream order: record `t` of a round-robin
/// batch is entry `t / p` of rank `t % p` (in the stream's last batch the
/// ranks hold non-increasing counts); a batch of shares is one buffer.
fn read_back<R: Rec>(bufs: &[RecBuf<R>], visit: &mut impl FnMut(R)) {
    for i in 0..bufs[0].len() {
        for buf in bufs {
            if i == buf.len() {
                break;
            }
            visit(buf.view().get(i));
        }
    }
}
