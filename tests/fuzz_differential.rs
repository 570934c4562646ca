//! Differential testing of the execution tiers over fuzzed programs.
//!
//! The grammar fuzzer (`nvp_workloads::fuzz`) generates seeded NV16
//! programs shaped to stress exactly what the fused tiers specialize
//! on — loops, branch diamonds, subroutines, divide-by-zero, memory
//! traffic — and every program must execute identically under
//! per-instruction `step()` and the block tier (instruction-capped and
//! cost-bounded). Each program runs under several *distinct* input-port
//! values so branch directions differ between runs, and each run is
//! checked against a stepped machine given the same input. The
//! cost-bounded runs draw random cycle and energy caps, also on a
//! variant with `ckpt` hints sprinkled through the program. Wild-mode
//! programs may fault; every tier must then report the identical error
//! with identical prior state.

mod support;

use std::sync::Arc;

use nvp_isa::asm::assemble;
use nvp_sim::{CycleModel, EnergyModel, Machine, MachineImage, SimError};
use nvp_workloads::fuzz::{generate, FuzzClass, FuzzedProgram};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use support::{assert_same_state, bounded_step, random_budget, WorstCosts};

/// Ample headroom over the fuzzer's bounded loops.
const BUDGET: u64 = 200_000;

/// Two independent seed families, as many programs each.
const SEED_FAMILIES: [u64; 2] = [0x00A1_0000, 0x00B2_0000];
const PROGRAMS_PER_FAMILY: u64 = 12;

/// Port-0 inputs each program runs under: the fuzzed `in r7, 0` read
/// makes downstream branch directions input-dependent.
const INPUTS: [u16; 4] = [0x0000, 0x0001, 0x7FFF, 0xFFFE];

fn image_of(program: &nvp_isa::Program, dmem_words: usize) -> Arc<MachineImage> {
    Arc::new(
        MachineImage::build(program, dmem_words, CycleModel::default(), EnergyModel::default())
            .expect("fuzzed image builds"),
    )
}

/// Runs `m` to halt or fault through `advance`, returning the error.
fn drive(
    m: &mut Machine,
    mut advance: impl FnMut(&mut Machine) -> Result<bool, SimError>,
) -> Option<SimError> {
    loop {
        match advance(m) {
            Ok(true) => return None,
            Ok(false) => {
                assert!(m.counters().instructions < BUDGET, "program exceeded budget");
            }
            Err(e) => return Some(e),
        }
    }
}

/// Exercises one fuzzed program across every tier.
fn check_program(f: &FuzzedProgram, seed: u64, tag: &str) {
    let image = image_of(&f.program, f.dmem_words);

    // Scalar reference per input, by single stepping.
    let mut refs: Vec<(Machine, Option<SimError>)> = Vec::new();
    for &input in &INPUTS {
        let mut m = Machine::from_image(&image);
        m.set_input(0, input);
        let err = drive(&mut m, |m| m.step().map(|_| m.halted()));
        refs.push((m, err));
    }

    // Block tier against the same inputs.
    for (i, &input) in INPUTS.iter().enumerate() {
        let mut m = Machine::from_image(&image);
        m.set_input(0, input);
        let err = drive(&mut m, |m| Ok(m.run_blocks(BUDGET)?.halted));
        let (reference, ref_err) = &refs[i];
        let ctx = format!("{tag}: block tier, input {input:#x}\n{}", f.source);
        assert_eq!(&err, ref_err, "{ctx}: fault disposition");
        assert_same_state(reference, &m, &ctx);
    }

    // Cost-bounded block tier under random caps: once on the program
    // as generated (ending where the step reference ends), once with
    // `ckpt` hints inside its blocks.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC057_B0D6);
    for (i, &input) in INPUTS.iter().enumerate() {
        let ctx = format!("{tag}: bounded tier, input {input:#x}\n{}", f.source);
        let (m, err) =
            run_bounded_to_end(&image, &WorstCosts::of(&f.program), input, &mut rng, &ctx);
        let (reference, ref_err) = &refs[i];
        assert_eq!(&err, ref_err, "{ctx}: fault disposition");
        assert_same_state(reference, &m, &ctx);

        let hinted = with_ckpts(&f.source, &mut rng);
        let program = assemble(&hinted).expect("hinted program assembles");
        let ctx = format!("{tag}: bounded tier with ckpt hints, input {input:#x}\n{hinted}");
        let image = image_of(&program, f.dmem_words);
        run_bounded_to_end(&image, &WorstCosts::of(&program), input, &mut rng, &ctx);
    }
}

/// Drives a fresh machine to halt or fault through
/// [`bounded_step`] under random budgets, checking every call against
/// a lockstep step-mode twin. Returns the engine machine and its fault.
fn run_bounded_to_end(
    image: &Arc<MachineImage>,
    costs: &WorstCosts,
    input: u16,
    rng: &mut StdRng,
    ctx: &str,
) -> (Machine, Option<SimError>) {
    let mut engine = Machine::from_image(image);
    let mut reference = Machine::from_image(image);
    engine.set_input(0, input);
    reference.set_input(0, input);
    for call in 0.. {
        let ctx = format!("{ctx}\ncall {call}");
        match bounded_step(&mut engine, &mut reference, costs, random_budget(rng), &ctx) {
            Err(e) => return (engine, Some(e)),
            Ok(_) if engine.halted() => return (engine, None),
            Ok(_) => assert!(engine.counters().instructions < BUDGET, "{ctx}: exceeded budget"),
        }
    }
    unreachable!("the loop only exits by returning")
}

/// Inserts a `ckpt` before roughly one in five instructions of an
/// assembly source (lines indented as instructions), so checkpoint
/// stops land inside block bodies and cost-capped prefixes.
fn with_ckpts(source: &str, rng: &mut StdRng) -> String {
    let mut out = String::with_capacity(source.len() * 2);
    for line in source.lines() {
        if line.starts_with("    ") && rng.next_u32().is_multiple_of(5) {
            out.push_str("    ckpt\n");
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[test]
fn fuzzed_programs_agree_across_all_tiers() {
    for family in SEED_FAMILIES {
        for i in 0..PROGRAMS_PER_FAMILY {
            let f = generate(family + i, FuzzClass::Safe);
            check_program(&f, family + i, &format!("safe seed {:#x}", family + i));
        }
    }
}

#[test]
fn fuzzed_faulting_programs_agree_across_all_tiers() {
    for family in SEED_FAMILIES {
        for i in 0..PROGRAMS_PER_FAMILY {
            let f = generate(family + i, FuzzClass::Wild);
            check_program(&f, family + i, &format!("wild seed {:#x}", family + i));
        }
    }
}
