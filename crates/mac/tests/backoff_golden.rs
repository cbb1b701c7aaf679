//! `Backoff`'s peer table against a recorded golden.
//!
//! A fixed-seed random sequence of every table operation (`begin_exchange`,
//! `on_overhear`, `on_receive`, `on_timeout`, `on_success`, `on_drop`,
//! `forget_peer`, `reset`) over 40 peer indices drives one per-destination
//! and one copying `Backoff`. After every step the test renders
//! `snapshot()`, `window(dst)` and `header(dst)`; the whole transcript must
//! match `golden/backoff_ops.txt`, recorded on the interleaved
//! `(index, Peer)` table, byte for byte, so a change to the table's layout
//! cannot change what the table computes or how it canonicalizes.

use std::fmt::Write as _;

use macaw_mac::{Addr, Backoff, BackoffAlgo, BackoffHeader, BackoffSharing};
use macaw_sim::SimRng;

const PEERS: u64 = 40;
const STEPS: usize = 120;

fn peer(rng: &mut SimRng) -> Addr {
    Addr::Unicast(rng.uniform_inclusive(0, PEERS - 1) as usize)
}

/// A header as a neighbour might send it: values a little outside the
/// bounds too, so the clamps are exercised.
fn header(rng: &mut SimRng) -> BackoffHeader {
    BackoffHeader {
        local: rng.uniform_inclusive(0, 80) as u32,
        remote: rng.chance(0.7).then(|| rng.uniform_inclusive(0, 80) as u32),
        esn: rng.uniform_inclusive(0, 6),
    }
}

/// Apply one random operation; return its description and the peer whose
/// window and header are rendered after it.
fn step(b: &mut Backoff, rng: &mut SimRng) -> (String, Addr) {
    let dst = peer(rng);
    let op = match rng.uniform_inclusive(0, 99) {
        0..=14 => format!("begin_exchange({dst:?}) = {}", b.begin_exchange(dst)),
        15..=39 => {
            let src = peer(rng);
            let rts = rng.chance(0.2);
            let h = header(rng);
            b.on_overhear(src, dst, rts, &h);
            format!("on_overhear({src:?}, {dst:?}, rts={rts}, {h:?})")
        }
        40..=64 => {
            let opening = rng.chance(0.5);
            let h = header(rng);
            b.on_receive(dst, opening, &h);
            format!("on_receive({dst:?}, opening={opening}, {h:?})")
        }
        65..=72 => {
            let retry = rng.uniform_inclusive(1, 8) as u32;
            b.on_timeout(dst, retry);
            format!("on_timeout({dst:?}, {retry})")
        }
        73..=78 => {
            b.on_success(dst);
            format!("on_success({dst:?})")
        }
        79..=83 => {
            b.on_drop(dst);
            format!("on_drop({dst:?})")
        }
        84..=94 => {
            b.forget_peer(dst);
            format!("forget_peer({dst:?})")
        }
        _ => {
            b.reset();
            "reset()".to_owned()
        }
    };
    (op, dst)
}

fn transcript() -> String {
    let mut out = String::new();
    let configs = [
        (BackoffAlgo::Mild, BackoffSharing::PerDestination, 11),
        (BackoffAlgo::Beb, BackoffSharing::Copy, 12),
    ];
    for (algo, sharing, seed) in configs {
        writeln!(out, "# {algo:?} {sharing:?} seed {seed}").unwrap();
        let mut b = Backoff::new(algo, sharing, 2, 64, 2);
        let mut rng = SimRng::new(seed);
        for i in 0..STEPS {
            let (op, dst) = step(&mut b, &mut rng);
            writeln!(out, "{i} {op}").unwrap();
            writeln!(out, "  window={} header={:?}", b.window(dst), b.header(dst)).unwrap();
            writeln!(out, "  {:?}", b.snapshot()).unwrap();
        }
    }
    out
}

#[test]
fn peer_table_operations_match_the_golden() {
    let got = transcript();
    let want = include_str!("golden/backoff_ops.txt");
    if let Some((n, (g, w))) = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!("line {}: got\n{g}\nwant\n{w}", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
    assert!(got == want, "transcript differs from the golden");
}
