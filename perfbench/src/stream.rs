//! Seeded inputs: the campaign seed and the `nvpd` job stream.
//!
//! Everything a workload submits is a pure function of the benchmark's
//! `--seed`, so two runs with one seed send byte-identical requests, and
//! each job's class is what the generator meant it to be (F12 bypasses
//! the simulation cache, so counters cannot tell a simulating job from
//! a deduplicated one).

use nvp_experiments::{registry, CampaignRequest, ExpConfig};

/// Splitmix64 finaliser: the benchmark's only source of randomness.
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The F12 fault seed both campaign workloads pass to `repro --seed`.
#[must_use]
pub fn campaign_seed(seed: u64) -> u64 {
    2 + mix64(seed ^ 0x0c4a_3b1e_5eed_0001) % 1_000_000
}

/// What the generator meant a job to exercise on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// F12 at a fresh fault seed: always simulates.
    Sim,
    /// The forward-progress pair (F3, F4) at a fresh seed: a new request
    /// key whose simulations are all resident after the warm-up.
    Dedup,
    /// A byte-identical resubmission of an earlier sim job: answered
    /// from the result store.
    Replay,
}

impl JobClass {
    /// All classes in reporting order.
    pub const ALL: [JobClass; 3] = [JobClass::Sim, JobClass::Dedup, JobClass::Replay];

    /// Metric-name stem.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobClass::Sim => "sim",
            JobClass::Dedup => "dedup",
            JobClass::Replay => "replay",
        }
    }
}

/// One generated submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// The class the generator chose.
    pub class: JobClass,
    /// The request to submit.
    pub request: CampaignRequest,
}

/// Endless seeded job stream over [`ExpConfig::quick`]. Classes come in
/// blocks of three, one of each in a seeded order, so every prefix of
/// the stream holds the classes in equal shares (within one block).
/// Each class does the same work on every job (one F12 run, one cached
/// F3+F4 pair, one stored F12 result), so its latency has one mode and
/// its median is steady from seed to seed.
#[derive(Debug, Clone)]
pub struct JobStream {
    state: u64,
    next_seed: u64,
    block: Vec<JobClass>,
    sims: Vec<CampaignRequest>,
}

/// What a dedup job selects: F3 simulates every kernel on every
/// platform and profile, and F4 replays F3's runs, so both are pure
/// cache consumers once the warm-up has run.
const DEDUP_IDS: [&str; 2] = ["f3", "f4"];

/// Every registered experiment except F12 (which bypasses the cache).
fn cached_ids() -> Vec<&'static str> {
    registry().iter().map(|e| e.id()).filter(|&id| id != "f12").collect()
}

impl JobStream {
    /// A stream for the benchmark seed `seed`.
    #[must_use]
    pub fn new(seed: u64) -> JobStream {
        let state = mix64(seed ^ 0x57ea_3000_0000_0001);
        // Fault seeds count up from a seeded base, so every sim and
        // dedup request in one stream carries a key never seen before.
        let next_seed = 1_000 + mix64(state) % 1_000_000_000;
        JobStream { state, next_seed, block: Vec::new(), sims: Vec::new() }
    }

    fn draw(&mut self) -> u64 {
        self.state = mix64(self.state);
        self.state
    }

    fn fresh_seed(&mut self) -> u64 {
        self.next_seed += 1;
        self.next_seed
    }

    fn dedup(&mut self) -> CampaignRequest {
        let mut req = CampaignRequest::only(ExpConfig::quick(), &DEDUP_IDS);
        req.seed = Some(self.fresh_seed());
        req
    }

    fn sim(&mut self) -> CampaignRequest {
        let mut req = CampaignRequest::only(ExpConfig::quick(), &["f12"]);
        req.seed = Some(self.fresh_seed());
        self.sims.push(req.clone());
        req
    }

    /// The untimed warm-up: every cached experiment once (so dedup jobs
    /// find their simulations resident), then one F12 job.
    pub fn warmup(&mut self) -> Vec<CampaignRequest> {
        let mut all = CampaignRequest::only(ExpConfig::quick(), &cached_ids());
        all.seed = Some(self.fresh_seed());
        vec![all, self.sim()]
    }

    /// The next job. Replays pick uniformly among the sim jobs submitted
    /// so far, warm-up included.
    pub fn next_job(&mut self) -> Job {
        if self.block.is_empty() {
            let mut block = JobClass::ALL.to_vec();
            for i in (1..block.len()).rev() {
                let j = (self.draw() % (i as u64 + 1)) as usize;
                block.swap(i, j);
            }
            self.block = block;
        }
        let class = self.block.pop().expect("block refilled above");
        let request = match class {
            JobClass::Sim => self.sim(),
            JobClass::Dedup => self.dedup(),
            JobClass::Replay => {
                assert!(!self.sims.is_empty(), "warmup() runs before the first replay");
                let pick = (self.draw() % self.sims.len() as u64) as usize;
                self.sims[pick].clone()
            }
        };
        Job { class, request }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_experiments::wire::request_key;
    use std::collections::HashSet;

    fn prefix(seed: u64, n: usize) -> (Vec<CampaignRequest>, Vec<Job>) {
        let mut s = JobStream::new(seed);
        let warm = s.warmup();
        (warm, (0..n).map(|_| s.next_job()).collect())
    }

    #[test]
    fn same_seed_gives_the_same_stream_and_campaign_seed() {
        assert_eq!(prefix(7, 300), prefix(7, 300));
        assert_eq!(campaign_seed(7), campaign_seed(7));
        assert_ne!(prefix(7, 30).1, prefix(8, 30).1, "the seed reaches the stream");
        assert_ne!(campaign_seed(7), campaign_seed(8), "the seed reaches the campaign");
    }

    #[test]
    fn classes_come_in_balanced_blocks() {
        let (_, jobs) = prefix(3, 300);
        for block in jobs.chunks(3) {
            for class in JobClass::ALL {
                assert_eq!(block.iter().filter(|j| j.class == class).count(), 1);
            }
        }
    }

    #[test]
    fn only_replays_repeat_a_request_key() {
        let (warm, jobs) = prefix(11, 600);
        let mut seen: HashSet<[u8; 32]> = warm.iter().map(request_key).collect();
        for job in &jobs {
            let fresh = seen.insert(request_key(&job.request));
            assert_eq!(fresh, job.class != JobClass::Replay, "{job:?}");
            let ids = job.request.only.as_ref().expect("every job selects ids");
            let f12 = ids.iter().any(|id| id == "f12");
            assert_eq!(f12, job.class != JobClass::Dedup, "only dedup jobs skip F12: {job:?}");
        }
    }
}
