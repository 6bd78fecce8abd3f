//! The three workloads, their seeded transaction generator and the model of
//! what the database must hold after the transactions that committed.

/// Items in the database, all integers starting at [`INITIAL`].
pub const ITEMS: usize = 1000;
/// Initial value of every item.
pub const INITIAL: i64 = 100;
/// Items a `read-mostly` transaction reads.
const READS_PER_TXN: usize = 4;
/// One `read-mostly` transaction in this many also increments an item.
const UPDATE_ONE_IN: u64 = 10;

/// Which storage engine a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The in-memory engine.
    Memory,
    /// The log-structured disk engine with fsync batching.
    Disk,
}

/// A workload: a transaction mix, a client count and an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1 client: `increment(a)`, `write(b, v)`, commit.
    SerialRmw,
    /// 2 clients: `read_many` of 4 items, one in ten also increments one.
    ReadMostly,
    /// 2 clients on the disk engine: `increment(a)`, commit.
    DurableRmw,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SerialRmw,
        Workload::ReadMostly,
        Workload::DurableRmw,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SerialRmw => "serial-rmw",
            Workload::ReadMostly => "read-mostly",
            Workload::DurableRmw => "durable-rmw",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop generator threads, each with its own `Client`.
    pub fn clients(self) -> usize {
        match self {
            Workload::SerialRmw => 1,
            Workload::ReadMostly | Workload::DurableRmw => 2,
        }
    }

    /// The storage engine the workload runs on.
    pub fn engine(self) -> Engine {
        match self {
            Workload::DurableRmw => Engine::Disk,
            Workload::SerialRmw | Workload::ReadMostly => Engine::Memory,
        }
    }
}

/// One generated transaction; items are indices into `0..ITEMS`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// `increment(a, 1)`, `write(b, value)`, commit; `a != b`.
    IncrementWrite { a: usize, b: usize, value: i64 },
    /// `read_many(items)`, then `increment(items[i], 1)` when `update` is
    /// `Some(i)`, commit.
    ReadMany {
        items: [usize; READS_PER_TXN],
        update: Option<usize>,
    },
    /// `increment(a, 1)`, commit.
    Increment { a: usize },
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one client of a run: the run seed and the client
    /// index together pick the stream.
    pub fn for_client(seed: u64, client: usize) -> Rng {
        let mut rng = Rng(seed ^ 0x5241_494e_424f_5721);
        for _ in 0..=client {
            rng.next_u64();
        }
        Rng(rng.next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (Lemire's multiply-shift; the bias is below
    /// n / 2^64).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// The transaction stream of one client.
///
/// In the two-client workloads each client draws its items uniformly from
/// its own residue class (`index % clients == client`). No two clients
/// touch the same item, so no transaction can wait in a cycle across the
/// copies of an item, a deadlock 2PL resolves only by the lock-wait
/// timeout: the workloads measure the protocol path, not a timeout.
#[derive(Debug, Clone)]
pub struct Generator {
    workload: Workload,
    client: usize,
    rng: Rng,
}

impl Generator {
    /// The generator of client `client` for a run seeded with `seed`.
    pub fn new(workload: Workload, seed: u64, client: usize) -> Generator {
        assert!(client < workload.clients());
        Generator {
            workload,
            client,
            rng: Rng::for_client(seed, client),
        }
    }

    /// A uniform item of this client's residue class.
    fn own_item(&mut self) -> usize {
        let clients = self.workload.clients();
        self.rng.below(ITEMS / clients) * clients + self.client
    }

    /// The next transaction.
    pub fn next_plan(&mut self) -> Plan {
        match self.workload {
            Workload::SerialRmw => {
                let a = self.rng.below(ITEMS);
                let b = (a + 1 + self.rng.below(ITEMS - 1)) % ITEMS;
                let value = (self.rng.next_u64() % 1_000_000) as i64;
                Plan::IncrementWrite { a, b, value }
            }
            Workload::ReadMostly => {
                let mut items = [usize::MAX; READS_PER_TXN];
                for slot in 0..READS_PER_TXN {
                    items[slot] = loop {
                        let item = self.own_item();
                        if !items[..slot].contains(&item) {
                            break item;
                        }
                    };
                }
                let update = (self.rng.next_u64().is_multiple_of(UPDATE_ONE_IN))
                    .then(|| self.rng.below(READS_PER_TXN));
                Plan::ReadMany { items, update }
            }
            Workload::DurableRmw => Plan::Increment { a: self.own_item() },
        }
    }
}

/// What one client's committed transactions did to each item, applied in
/// that client's commit order.
#[derive(Debug, Clone)]
pub struct Effects {
    /// Net increments since the last blind write (or the start).
    delta: Vec<i64>,
    /// The last value blindly written, if any.
    written: Vec<Option<i64>>,
    /// Items a transaction of unknown outcome (an orphan) touched.
    unknown: Vec<bool>,
}

impl Default for Effects {
    fn default() -> Self {
        Effects {
            delta: vec![0; ITEMS],
            written: vec![None; ITEMS],
            unknown: vec![false; ITEMS],
        }
    }
}

impl Effects {
    /// Applies a committed plan.
    pub fn commit(&mut self, plan: &Plan) {
        match plan {
            Plan::IncrementWrite { a, b, value } => {
                self.delta[*a] += 1;
                self.delta[*b] = 0;
                self.written[*b] = Some(*value);
            }
            Plan::ReadMany { items, update } => {
                if let Some(i) = update {
                    self.delta[items[*i]] += 1;
                }
            }
            Plan::Increment { a } => self.delta[*a] += 1,
        }
    }

    /// Marks the items a plan of unknown outcome wrote.
    pub fn unknown(&mut self, plan: &Plan) {
        match plan {
            Plan::IncrementWrite { a, b, .. } => {
                self.unknown[*a] = true;
                self.unknown[*b] = true;
            }
            Plan::ReadMany { items, update } => {
                if let Some(i) = update {
                    self.unknown[items[*i]] = true;
                }
            }
            Plan::Increment { a } => self.unknown[*a] = true,
        }
    }

    /// The values the database must hold given every client's effects, or
    /// `None` for an item whose value cannot be predicted: one an orphan
    /// touched, or one blindly written by more than one client.
    pub fn expected(clients: &[Effects]) -> Vec<Option<i64>> {
        (0..ITEMS)
            .map(|item| {
                let writers = clients.iter().filter(|c| c.written[item].is_some()).count();
                if writers > 1 || clients.iter().any(|c| c.unknown[item]) {
                    return None;
                }
                let base = clients
                    .iter()
                    .find_map(|c| c.written[item])
                    .unwrap_or(INITIAL);
                Some(base + clients.iter().map(|c| c.delta[item]).sum::<i64>())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plans_and_clients_differ() {
        for workload in Workload::ALL {
            let take = |seed, client| {
                let mut g = Generator::new(workload, seed, client);
                (0..50).map(|_| g.next_plan()).collect::<Vec<_>>()
            };
            assert_eq!(take(7, 0), take(7, 0));
            assert_ne!(take(7, 0), take(8, 0));
            if workload.clients() > 1 {
                assert_ne!(take(7, 0), take(7, 1));
            }
        }
    }

    #[test]
    fn plans_keep_their_shape() {
        for workload in Workload::ALL {
            for client in 0..workload.clients() {
                let mut g = Generator::new(workload, 1, client);
                for _ in 0..5000 {
                    match g.next_plan() {
                        Plan::IncrementWrite { a, b, .. } => {
                            assert!(a != b && a < ITEMS && b < ITEMS)
                        }
                        Plan::ReadMany { items, update } => {
                            let mut sorted = items;
                            sorted.sort_unstable();
                            assert!(sorted.windows(2).all(|w| w[0] < w[1]));
                            assert!(sorted[READS_PER_TXN - 1] < ITEMS);
                            assert!(items.iter().all(|item| item % 2 == client), "{items:?}");
                            assert!(update.is_none_or(|i| i < READS_PER_TXN));
                        }
                        Plan::Increment { a } => assert_eq!(a % 2, client),
                    }
                }
            }
        }
    }

    #[test]
    fn read_mostly_updates_about_one_in_ten() {
        let mut g = Generator::new(Workload::ReadMostly, 3, 0);
        let updates = (0..10_000)
            .filter(|_| {
                matches!(
                    g.next_plan(),
                    Plan::ReadMany {
                        update: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert!((900..1100).contains(&updates), "{updates}");
    }

    #[test]
    fn expected_values_follow_commit_order() {
        let mut effects = Effects::default();
        effects.commit(&Plan::IncrementWrite {
            a: 1,
            b: 2,
            value: 7,
        });
        effects.commit(&Plan::IncrementWrite {
            a: 2,
            b: 3,
            value: 9,
        });
        effects.commit(&Plan::IncrementWrite {
            a: 1,
            b: 2,
            value: 40,
        });
        let expected = Effects::expected(&[effects]);
        assert_eq!(expected[1], Some(INITIAL + 2));
        assert_eq!(expected[2], Some(40));
        assert_eq!(expected[3], Some(9));
        assert_eq!(expected[4], Some(INITIAL));
    }

    #[test]
    fn increments_of_all_clients_add_up_and_orphans_are_unknown() {
        let mut a = Effects::default();
        let mut b = Effects::default();
        a.commit(&Plan::Increment { a: 4 });
        b.commit(&Plan::Increment { a: 4 });
        b.commit(&Plan::ReadMany {
            items: [4, 5, 6, 7],
            update: Some(0),
        });
        b.commit(&Plan::ReadMany {
            items: [8, 5, 6, 7],
            update: None,
        });
        a.unknown(&Plan::Increment { a: 9 });
        let expected = Effects::expected(&[a, b]);
        assert_eq!(expected[4], Some(INITIAL + 3));
        assert_eq!(expected[8], Some(INITIAL));
        assert_eq!(expected[9], None);
    }
}
