//! A fixed reference computation that measures how fast the host is running
//! right now. It calls no simulator code, so a change to the program never
//! moves it; only the machine does. Timing it next to every study lets the
//! benchmark report study time in units of the reference, which cancels the
//! host's speed swings (a shared machine can run the same code tens of
//! percent slower for minutes at a time).
//!
//! A pass has two parts, because a study is partly bound by the processor
//! and partly by memory latency, and the two swing differently:
//!
//! * a mix that follows the study's compute: a binary heap (the event
//!   queue), hash map inserts and lookups (classification), linear scans
//!   over records, and numbers formatted to text and parsed back (trace
//!   writing and analysis);
//! * a chain of dependent loads through a 64 MiB table, which misses the
//!   caches the way the large workloads' event queue and maps do.
//!
//! Over five seeds on a shared 2-vCPU host, where study times in host
//! seconds spread by up to 38% (interquartile range over median), study
//! times in units of either part alone still spread by up to 20% on some
//! workload; in units of their sum they stayed under 8% on every workload.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// Elements per part of the mix: it takes 0.10-0.19 s on one vCPU of a
/// shared 2-vCPU Intel Xeon host, depending on how busy the host is.
const N: usize = 300_000;
/// Entries in the load chain's table (4 bytes each).
const CHAIN_LEN: usize = 16 << 20;
/// Dependent loads per pass: 0.08-0.11 s on the same host.
const CHAIN_LOADS: usize = 500_000;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The reference computation with its buffers. The load chain's table is
/// written when the buffers are made, so a timed pass allocates nothing
/// and takes no page faults on it.
struct Reference {
    heap: BinaryHeap<Reverse<u64>>,
    map: HashMap<u64, u64>,
    records: Vec<[u64; 4]>,
    line: String,
    chain: Vec<u32>,
}

impl Reference {
    fn new() -> Reference {
        // A full-period LCG modulo the table size: each entry names the
        // next, far from it, and the chain visits every entry once.
        let chain = (0..CHAIN_LEN)
            .map(|i| (i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) % CHAIN_LEN) as u32)
            .collect();
        Reference {
            heap: BinaryHeap::with_capacity(N),
            map: HashMap::with_capacity(N / 4),
            records: Vec::with_capacity(N / 16),
            line: String::with_capacity(64),
            chain,
        }
    }

    /// Wall seconds per pass, averaged over `passes` passes run back to
    /// back.
    fn seconds(&mut self, passes: u32) -> f64 {
        let t = Instant::now();
        for _ in 0..passes {
            black_box(self.pass());
        }
        t.elapsed().as_secs_f64() / f64::from(passes)
    }

    /// One pass of the mix; returns a checksum so no part is optimized away.
    fn pass(&mut self) -> u64 {
        let mut s = 0x9e37_79b9_7f4a_7c15;
        let mut sum = 0u64;

        let heap = &mut self.heap;
        for _ in 0..N {
            heap.push(Reverse(xorshift(&mut s) >> 20));
        }
        for _ in 0..N / 2 {
            let Reverse(t) = heap.pop().expect("heap holds N");
            heap.push(Reverse(t + (xorshift(&mut s) >> 40)));
        }
        while let Some(Reverse(t)) = heap.pop() {
            sum = sum.wrapping_add(t);
        }

        let map = &mut self.map;
        map.clear();
        for i in 0..N as u64 {
            *map.entry(xorshift(&mut s) % (N as u64 / 4)).or_insert(0) += i;
        }
        for _ in 0..N {
            sum = sum.wrapping_add(*map.get(&(xorshift(&mut s) % (N as u64 / 2))).unwrap_or(&1));
        }

        let records = &mut self.records;
        records.clear();
        records.extend((0..N / 16).map(|_| [xorshift(&mut s), xorshift(&mut s), 0, 0]));
        for _ in 0..N / 400 {
            let key = xorshift(&mut s);
            sum += records.iter().filter(|r| (r[0] ^ key) & 0xff == 0).count() as u64;
        }

        let line = &mut self.line;
        for _ in 0..N / 2 {
            line.clear();
            let (a, b) = (
                xorshift(&mut s) >> 11,
                (xorshift(&mut s) >> 11) as f64 * 1e-6,
            );
            write!(line, r#"{{"t":{a},"w":{b}}}"#).expect("writing to a String");
            for field in line.trim_matches(|c| c == '{' || c == '}').split(',') {
                let value = field.split(':').nth(1).unwrap_or("0");
                sum = sum.wrapping_add(value.parse::<f64>().unwrap_or(0.0) as u64);
            }
        }

        let mut at = (sum % CHAIN_LEN as u64) as u32;
        for _ in 0..CHAIN_LOADS {
            at = self.chain[at as usize];
        }
        sum.wrapping_add(u64::from(at))
    }
}

/// One reference window between studies: wall seconds per pass over
/// `passes` passes of fresh buffers, which are freed again. Then the
/// process's peak-RSS mark is put back to its current RSS (Linux
/// `clear_refs`), so the reference's table never counts toward a study's
/// peak.
pub fn window_s(passes: u32) -> Result<f64, String> {
    let secs = Reference::new().seconds(passes);
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak-RSS mark: {e}"))?;
    Ok(secs)
}
