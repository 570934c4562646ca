//! Shared checks for the cost-bounded block engine
//! (`Machine::run_bounded`) against per-instruction `step()` mode.

use nvp_isa::{Inst, Program};
use nvp_sim::{BlockStats, CostBudget, CycleModel, EnergyModel, InstClass, Machine, SimError};
use rand::rngs::StdRng;
use rand::RngCore;

/// Relative slack for comparing summed f64 energies: the engine sums
/// worst cases per block, the check per instruction, so the two totals
/// may differ in the last bits.
const ENERGY_TOL: f64 = 1e-12;

/// Worst-case (cycles, joules) of every instruction in a program under
/// the default cost models: a branch counts its dearer outcome.
pub struct WorstCosts(Vec<(u64, f64)>);

impl WorstCosts {
    pub fn of(program: &Program) -> WorstCosts {
        let (cm, em) = (CycleModel::default(), EnergyModel::default());
        WorstCosts(
            program
                .code()
                .iter()
                .map(|&word| {
                    let class = InstClass::of(&Inst::decode(word).expect("image decodes"));
                    let (nt, t) = (cm.cycles(class, false), cm.cycles(class, true));
                    (u64::from(nt.max(t)), em.energy(class, nt).max(em.energy(class, t)))
                })
                .collect(),
        )
    }

    fn at(&self, pc: u32) -> Option<(u64, f64)> {
        self.0.get(pc as usize).copied()
    }
}

/// A random budget that always caps something: instruction caps up to
/// a few blocks, and cycle or energy caps that are often smaller than
/// one block so runs stop mid-block.
pub fn random_budget(rng: &mut StdRng) -> CostBudget {
    let op_j = EnergyModel::default().energy(InstClass::Alu, 1);
    let mut pick = |n: u32| rng.next_u32() % n;
    let insts = if pick(4) == 0 { u64::from(pick(40)) } else { u64::MAX };
    let mut cycles = match pick(3) {
        0 => u64::from(pick(8)),
        1 => u64::from(pick(400)),
        _ => u64::MAX,
    };
    let energy_j = match pick(3) {
        0 => op_j * f64::from(pick(64)) / 8.0,
        1 => op_j * f64::from(pick(4000)) / 10.0,
        _ => f64::INFINITY,
    };
    if insts == u64::MAX && cycles == u64::MAX && energy_j.is_infinite() {
        cycles = u64::from(pick(400));
    }
    CostBudget { insts, cycles, energy_j }
}

/// Asserts two machines are identical in every observable: state,
/// memory, output log, integer counters, and energy bits.
pub fn assert_same_state(step: &Machine, other: &Machine, ctx: &str) {
    assert_eq!(step.snapshot(), other.snapshot(), "{ctx}: architectural state diverged");
    assert_eq!(step.halted(), other.halted(), "{ctx}: halt flag diverged");
    assert_eq!(step.dmem(), other.dmem(), "{ctx}: data memory diverged");
    assert_eq!(step.out_log(), other.out_log(), "{ctx}: output log diverged");
    let (cs, cb) = (step.counters(), other.counters());
    assert_eq!(cs.instructions, cb.instructions, "{ctx}: retired counts diverged");
    assert_eq!(cs.cycles, cb.cycles, "{ctx}: cycle counts diverged");
    assert_eq!(cs.class_counts, cb.class_counts, "{ctx}: class counts diverged");
    assert_eq!(cs.branches_taken, cb.branches_taken, "{ctx}: branch counts diverged");
    assert_eq!(
        cs.energy_j.to_bits(),
        cb.energy_j.to_bits(),
        "{ctx}: energy not bit-identical ({} vs {})",
        cs.energy_j,
        cb.energy_j
    );
}

/// Runs `engine.run_bounded(budget)`, replays the instructions it
/// retired on `reference` (same state beforehand) with `step()`, and
/// asserts:
///
/// * both machines and the returned stats are bit-identical, and a
///   fault is the reference's next instruction's fault;
/// * the retired instructions' summed worst case fits every cap;
/// * a run that stopped on the budget stopped only because the next
///   instruction's worst case would not fit.
pub fn bounded_step(
    engine: &mut Machine,
    reference: &mut Machine,
    costs: &WorstCosts,
    budget: CostBudget,
    ctx: &str,
) -> Result<BlockStats, SimError> {
    let before = engine.counters().instructions;
    let result = engine.run_bounded(budget);
    let retired = engine.counters().instructions - before;
    let ctx = format!("{ctx}, {budget:?}");

    let mut expect = BlockStats::default();
    let (mut cycles, mut energy_j) = (0u64, 0.0f64);
    for i in 0..retired {
        let (c, e) = costs.at(reference.pc()).expect("retired pcs are in the image");
        let s = reference.step().unwrap_or_else(|e| panic!("{ctx}: reference faulted: {e}"));
        assert!(!s.checkpoint || i + 1 == retired, "{ctx}: engine ran past a ckpt");
        expect.executed += 1;
        expect.cycles += u64::from(s.cycles);
        expect.energy_j += s.energy_j;
        expect.checkpoint = s.checkpoint;
        cycles += c;
        energy_j += e;
    }
    expect.halted = reference.halted();
    let fits = |c: u64, e: f64| c <= budget.cycles && e <= budget.energy_j * (1.0 + ENERGY_TOL);
    assert!(retired <= budget.insts, "{ctx}: instruction cap exceeded");
    assert!(fits(cycles, energy_j), "{ctx}: retired worst case {cycles} cy / {energy_j} J");

    let next = costs.at(reference.pc());
    match &result {
        Err(err) => {
            assert_eq!(reference.step().err().as_ref(), Some(err), "{ctx}: fault disposition");
            if let Some((c, e)) = next {
                assert!(fits(cycles + c, energy_j + e), "{ctx}: faulted outside the budget");
            }
        }
        Ok(stats) => {
            assert_eq!(stats.executed, expect.executed, "{ctx}: executed");
            assert_eq!(stats.cycles, expect.cycles, "{ctx}: cycles");
            assert_eq!(stats.energy_j.to_bits(), expect.energy_j.to_bits(), "{ctx}: energy");
            assert_eq!(stats.halted, expect.halted, "{ctx}: halted");
            assert_eq!(stats.checkpoint, expect.checkpoint, "{ctx}: checkpoint");
            if !stats.halted && !stats.checkpoint && retired < budget.insts {
                let (c, e) = next.unwrap_or_else(|| panic!("{ctx}: stopped outside the image"));
                assert!(
                    cycles + c > budget.cycles
                        || energy_j + e > budget.energy_j * (1.0 - ENERGY_TOL),
                    "{ctx}: stopped early, next instruction ({c} cy, {e} J) fits"
                );
            }
        }
    }
    assert_same_state(reference, engine, &ctx);
    result
}
