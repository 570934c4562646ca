//! Execution-tier equivalence over every registry workload kernel.
//!
//! Both execution tiers must be observationally identical: per
//! instruction `step()` dispatch and the fused basic-block engine
//! (`Machine::run_blocks`, and its cost-bounded form
//! `Machine::run_bounded`) — same final registers, same memory digest,
//! same retired-instruction count, and bit-identical energy
//! (`f64::to_bits` — fused execution must preserve the exact
//! per-instruction f64 accumulation order). Checked for one
//! uninterrupted run, under randomized chunked instruction budgets
//! (mid-block budget exhaustion, re-entry at non-leader program
//! counters), and under randomized cycle and energy caps with
//! mid-block restores.

mod support;

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use nvp_sim::{CycleModel, EnergyModel, Machine, MachineImage};
use nvp_workloads::{GrayImage, KernelKind};
use support::{assert_same_state, bounded_step, random_budget, WorstCosts};

/// Per-kernel instruction budget: enough to finish the small frame or
/// to sample deep into the steady-state loop of kernels that don't.
const BUDGET: u64 = 300_000;

/// FNV-1a over every architectural observable — registers, pc, halt
/// flag, data memory, and the output log (golden-digest style: one
/// number summarizing the whole machine state).
fn state_digest(m: &Machine) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in m.pc().to_le_bytes() {
        eat(b);
    }
    eat(u8::from(m.halted()));
    for r in m.snapshot().regs {
        for b in r.to_le_bytes() {
            eat(b);
        }
    }
    for &w in m.dmem() {
        for b in w.to_le_bytes() {
            eat(b);
        }
    }
    for &(port, value) in m.out_log() {
        eat(port);
        for b in value.to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// [`assert_same_state`] plus the one-number state digest.
fn assert_same(step: &Machine, other: &Machine, ctx: &str) {
    assert_same_state(step, other, ctx);
    assert_eq!(state_digest(step), state_digest(other), "{ctx}: state digest diverged");
}

/// Advances `m` with `run_blocks` until it has retired `target`
/// instructions in total (or halted) — `run_blocks` legitimately
/// returns early at checkpoint boundaries, so one call per chunk is
/// not guaranteed to consume the whole chunk budget.
fn blocks_to_target(m: &mut Machine, target: u64) {
    while m.counters().instructions < target && !m.halted() {
        let remaining = target - m.counters().instructions;
        let stats = m.run_blocks(remaining).expect("kernel does not fault");
        if stats.executed == 0 && !stats.checkpoint {
            break;
        }
    }
}

/// Same, with per-instruction `step()` dispatch.
fn steps_to_target(m: &mut Machine, target: u64) {
    while m.counters().instructions < target && !m.halted() {
        m.step().expect("kernel does not fault");
    }
}

/// The shared decoded image the step and block tiers execute from,
/// plus the program's per-instruction worst-case costs.
fn image_for(kind: KernelKind, frame: &GrayImage) -> (Arc<MachineImage>, WorstCosts) {
    let inst = kind.build(frame).expect("kernel builds");
    let image = MachineImage::build(
        inst.program(),
        inst.min_dmem_words(),
        CycleModel::default(),
        EnergyModel::default(),
    )
    .expect("image builds");
    (Arc::new(image), WorstCosts::of(inst.program()))
}

#[test]
fn all_kernels_match_step_mode_exactly() {
    let frame = GrayImage::synthetic(7, 16, 16);
    for kind in KernelKind::ALL {
        let (image, _) = image_for(kind, &frame);
        let mut by_step = Machine::from_image(&image);
        let mut by_block = Machine::from_image(&image);
        steps_to_target(&mut by_step, BUDGET);
        blocks_to_target(&mut by_block, BUDGET);
        assert_same(&by_step, &by_block, &format!("{kind:?} full run, block tier"));
    }
}

#[test]
fn all_kernels_match_step_mode_under_chunked_budgets() {
    let frame = GrayImage::synthetic(7, 16, 16);
    let mut rng = StdRng::seed_from_u64(0x5eed_b10c);
    for kind in KernelKind::ALL {
        let (image, _) = image_for(kind, &frame);
        let mut by_step = Machine::from_image(&image);
        let mut by_block = Machine::from_image(&image);
        let mut target = 0u64;
        // Ragged chunks land budget boundaries mid-block, so the block
        // engine must stop after a body prefix and later re-enter at
        // non-leader pcs — compare after every chunk, not just at the end.
        for round in 0..64 {
            target += 1 + u64::from(rng.next_u32() % 97);
            steps_to_target(&mut by_step, target);
            blocks_to_target(&mut by_block, target);
            assert_same(&by_step, &by_block, &format!("{kind:?} chunk {round}, block"));
            if by_step.halted() {
                break;
            }
        }
    }
}

#[test]
fn all_kernels_match_step_mode_under_cost_budgets() {
    let frame = GrayImage::synthetic(7, 16, 16);
    let mut rng = StdRng::seed_from_u64(0x5eed_c057);
    for kind in KernelKind::ALL {
        let (image, costs) = image_for(kind, &frame);
        let mut by_step = Machine::from_image(&image);
        let mut by_bounded = Machine::from_image(&image);
        let mut saved = None;
        // Random cycle/energy/instruction caps, often smaller than one
        // block, so runs stop inside block bodies and resume there; a
        // power-failure-style rollback to an earlier snapshot now and
        // then re-enters at whatever (usually non-leader) pc it saved.
        for round in 0..400 {
            let ctx = format!("{kind:?} round {round}");
            bounded_step(&mut by_bounded, &mut by_step, &costs, random_budget(&mut rng), &ctx)
                .expect("kernel does not fault");
            match rng.next_u32() % 16 {
                0 => saved = Some(by_step.snapshot()),
                1 => {
                    if let Some(state) = saved {
                        by_step.restore(&state);
                        by_bounded.restore(&state);
                    }
                }
                _ => {}
            }
            if by_step.halted() {
                break;
            }
        }
    }
}
