//! The verification layer's contract, held by property tests:
//!
//! 1. Optimization passes preserve verifier acceptance — a well-typed body
//!    stays well-typed through every `OptLevel` pipeline.
//! 2. The typed verifier subsumes structural validation — every mutant the
//!    structural check rejects is rejected, plus strictly more (type
//!    errors in structurally valid bodies).
//! 3. Each seeded defect class (ill-typed body, non-convex fused region,
//!    compute-before-upload hazard) is rejected with its own distinct
//!    diagnostic.
//!
//! Random programs come from a seeded generator; each case index derives
//! its own RNG stream, so failures reproduce by case number.

use kfusion_check::{ir, plan, schedule};
use kfusion_ir::builder::{BodyBuilder, Expr};
use kfusion_ir::opt::{optimize, OptLevel};
use kfusion_ir::{BinOp, CmpOp, Instr, KernelBody, Value};
use kfusion_prng::Rng;

/// Input layout of generated programs: slots 0..4 i64, 4..6 f64, 6..8 bool.
const N_I64: u32 = 4;
const N_BOOL: u32 = 2;
const N_SLOTS: u32 = 8;

const CMP_OPS: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];

fn gen_i64_expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        return if rng.gen_bool(0.5) {
            Expr::input(rng.gen_range(0..N_I64))
        } else {
            Expr::lit(rng.gen_range(-100i64..100))
        };
    }
    let a = gen_i64_expr(rng, depth - 1);
    let b = gen_i64_expr(rng, depth - 1);
    match rng.gen_range(0usize..8) {
        0 => a.add(b),
        1 => a.sub(b),
        2 => a.mul(b),
        3 => a.div(b),
        4 => a.and(b),
        5 => a.or(b),
        6 => a.neg(),
        _ => Expr::select(gen_bool_leaf(rng), a, b),
    }
}

fn gen_bool_leaf(rng: &mut Rng) -> Expr {
    match rng.gen_range(0usize..3) {
        0 => Expr::input(rng.gen_range(6..6 + N_BOOL)),
        1 => Expr::lit(rng.gen_bool(0.5)),
        _ => {
            let op = CMP_OPS[rng.gen_range(0usize..CMP_OPS.len())];
            Expr::input(rng.gen_range(0..N_I64)).cmp(op, Expr::lit(rng.gen_range(-50i64..50)))
        }
    }
}

fn gen_pred_expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        return gen_bool_leaf(rng);
    }
    match rng.gen_range(0usize..4) {
        0 => gen_pred_expr(rng, depth - 1).and(gen_pred_expr(rng, depth - 1)),
        1 => gen_pred_expr(rng, depth - 1).or(gen_pred_expr(rng, depth - 1)),
        2 => gen_pred_expr(rng, depth - 1).not(),
        _ => {
            let op = CMP_OPS[rng.gen_range(0usize..CMP_OPS.len())];
            gen_i64_expr(rng, 1).cmp(op, gen_i64_expr(rng, 1))
        }
    }
}

fn gen_body(rng: &mut Rng) -> KernelBody {
    let mut b = BodyBuilder::new(N_SLOTS);
    if rng.gen_bool(0.5) {
        b.emit_output(gen_i64_expr(rng, 4));
    } else {
        b.emit_output(gen_pred_expr(rng, 4));
    }
    b.build()
}

/// A well-typed body stays verifier-accepted through every opt pipeline.
#[test]
fn opt_preserves_verifier_acceptance() {
    for case in 0u64..256 {
        let mut rng = Rng::seed_from_u64(0xC1 << 32 | case);
        let body = gen_body(&mut rng);
        assert!(ir::verify(&body).is_ok(), "case {case}: generator made an ill-typed body");
        for level in OptLevel::ALL {
            let out = optimize(&body, level);
            assert!(
                ir::verify(&out).is_ok(),
                "case {case} level {level}: optimizer output rejected:\n{out}"
            );
        }
    }
}

/// One random corruption of a well-formed body.
fn mutate(rng: &mut Rng, body: &mut KernelBody) {
    let n = body.instrs.len();
    match rng.gen_range(0usize..5) {
        // Rewire one operand to an arbitrary register (possibly forward).
        0 => {
            let i = rng.gen_range(0..n);
            let target = rng.gen_range(0..n as u32 + 2);
            let mut k = rng.gen_range(0usize..3);
            body.instrs[i].map_operands(|r| {
                let hit = k == 0;
                k = k.wrapping_sub(1);
                if hit {
                    target
                } else {
                    r
                }
            });
        }
        // Retarget an input load: out-of-range or a differently-typed slot.
        1 => {
            let slot = rng.gen_range(0..N_SLOTS + 2);
            if let Some(l) =
                body.instrs.iter_mut().find(|ins| matches!(ins, Instr::LoadInput { .. }))
            {
                *l = Instr::LoadInput { slot };
            }
        }
        // Replace an instruction with a random binary op over random regs.
        2 => {
            let i = rng.gen_range(0..n);
            const OPS: [BinOp; 4] = [BinOp::Add, BinOp::Shl, BinOp::And, BinOp::Mul];
            body.instrs[i] = Instr::Bin {
                op: OPS[rng.gen_range(0usize..OPS.len())],
                lhs: rng.gen_range(0..n as u32 + 1),
                rhs: rng.gen_range(0..n as u32 + 1),
            };
        }
        // Flip a constant to a different type.
        3 => {
            if let Some(c) = body.instrs.iter_mut().find(|ins| matches!(ins, Instr::Const { .. })) {
                let value = match c {
                    Instr::Const { value: Value::I64(_) } => Value::Bool(true),
                    _ => Value::I64(7),
                };
                *c = Instr::Const { value };
            }
        }
        // Point an output at a (possibly undefined) register.
        _ => {
            let o = rng.gen_range(0usize..body.outputs.len());
            body.outputs[o] = rng.gen_range(0..n as u32 + 3);
        }
    }
}

/// The typed verifier rejects a superset of what structural validation
/// rejects: every structural failure comes through, and type-only failures
/// (structurally valid, ill-typed) add strictly more.
#[test]
fn mutation_suite_verifier_subsumes_structural_checks() {
    let mut validate_rejects = 0usize;
    let mut verify_rejects = 0usize;
    let mut type_only_rejects = 0usize;
    for case in 0u64..512 {
        let mut rng = Rng::seed_from_u64(0xC2 << 32 | case);
        let mut body = gen_body(&mut rng);
        mutate(&mut rng, &mut body);
        let structural = body.validate().is_err();
        let typed = ir::verify(&body).is_err();
        assert!(
            !structural || typed,
            "case {case}: structurally invalid body passed the typed verifier:\n{body}"
        );
        validate_rejects += structural as usize;
        verify_rejects += typed as usize;
        type_only_rejects += (typed && !structural) as usize;
    }
    assert!(verify_rejects >= validate_rejects);
    assert!(
        type_only_rejects > 0,
        "no mutant was rejected for type errors alone \
         ({verify_rejects} verify vs {validate_rejects} validate rejects)"
    );
}

/// Each seeded defect class draws its own distinct, actionable diagnostic.
#[test]
fn seeded_defect_classes_have_distinct_diagnostics() {
    // Class 1: ill-typed body — Add on bool.
    let mut bad = KernelBody::new(1);
    let a = bad.push(Instr::Const { value: Value::Bool(true) });
    let b = bad.push(Instr::Const { value: Value::Bool(false) });
    let s = bad.push(Instr::Bin { op: BinOp::Add, lhs: a, rhs: b });
    bad.outputs.push(s);
    let ir_err = ir::verify(&bad).unwrap_err();
    let ir_msg = ir_err.render(&bad);
    assert!(ir_msg.contains("Add"), "{ir_msg}");
    assert!(ir_msg.contains("<-- here"), "{ir_msg}");

    // Class 2: non-convex fused region — member → outside SORT → member.
    use kfusion_core::{FusionPlan, OpKind, PlanGraph};
    use kfusion_relalg::ops::SortBy;
    use kfusion_relalg::predicates;
    let mut g = PlanGraph::new();
    let i = g.input(0);
    let s1 = g.add(OpKind::Select { pred: predicates::key_lt(100) }, vec![i]);
    let so = g.add(OpKind::Sort { by: SortBy::Key }, vec![s1]);
    let s3 = g.add(OpKind::Select { pred: predicates::key_lt(50) }, vec![so]);
    let fusion = FusionPlan {
        group_of: vec![None, Some(0), Some(1), Some(0)],
        groups: vec![vec![s1, s3], vec![so]],
        chains: Vec::new(),
    };
    let plan_err = plan::check_fusion(&g, &fusion).unwrap_err();
    assert!(matches!(plan_err, plan::FusionCheckError::NonConvex { .. }), "{plan_err:?}");
    let plan_msg = plan_err.to_string();
    assert!(plan_msg.contains("non-convex"), "{plan_msg}");

    // Class 3: compute starting before its input H2D completes.
    use kfusion_vgpu::des::{Command, CommandClass, Schedule};
    use kfusion_vgpu::{DeviceSpec, HostMemKind, KernelProfile, LaunchConfig};
    let mut sched = Schedule::new();
    let up = sched.add_stream();
    let compute = sched.add_stream();
    sched.push(up, Command::h2d("in", CommandClass::InputOutput, 1 << 20, HostMemKind::Pinned));
    let spec = DeviceSpec::tesla_c2070();
    let profile = KernelProfile::new("filter").instr_per_elem(8.0).bytes_read_per_elem(4.0);
    sched.push(
        compute,
        Command::kernel(profile, LaunchConfig::for_elements(1 << 18, &spec), 1 << 18).reading("in"),
    );
    let hazards = schedule::find_hazards(&sched);
    assert!(
        matches!(&hazards[0], schedule::Hazard::UseBeforeDef { buffer, .. } if buffer == "in"),
        "{hazards:?}"
    );
    let hazard_msg = hazards[0].to_string();
    assert!(hazard_msg.contains("use-before-def"), "{hazard_msg}");

    // Three analyses, three distinguishable rejections.
    assert_ne!(ir_msg, plan_msg);
    assert_ne!(plan_msg, hazard_msg);
    assert_ne!(ir_msg, hazard_msg);
}
