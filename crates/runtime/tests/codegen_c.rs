//! The ultimate codegen check: emit the Figure-8 C for a compiled plan,
//! build it with the system C compiler (`-O2 -ffp-contract=off`, so no
//! multiply-add is fused), run it, and compare the output grid against the
//! engine bit-for-bit (same expression order ⇒ identical fp).
//!
//! Skips silently when no `cc` is on PATH (CI containers without a C
//! toolchain).

use gmg_ir::expr::Operand as Op;
use gmg_ir::stencil::{restrict_full_weighting_2d, stencil_2d};
use gmg_ir::{ParamBindings, Pipeline, StepCount};
use gmg_runtime::Engine;
use polymg::{codegen, compile, PipelineOptions, Variant};
use std::io::Write as _;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn have_cc() -> bool {
    Command::new("cc")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

fn five() -> Vec<Vec<f64>> {
    vec![
        vec![0.0, -1.0, 0.0],
        vec![-1.0, 4.0, -1.0],
        vec![0.0, -1.0, 0.0],
    ]
}

/// Two-level pipeline exercising smoother fusion, defect/restrict scaling,
/// interp parity cases and correction.
fn two_level(n: i64, nc: i64) -> Pipeline {
    let mut p = Pipeline::new("cgen");
    let v = p.input("V", 2, n, 1);
    let f = p.input("F", 2, n, 1);
    let jac = Op::State.at(&[0, 0])
        - 0.2 * (stencil_2d(Op::State, &five(), 1.0) - Op::Func(f).at(&[0, 0]));
    let pre = p.tstencil("pre", 2, n, 1, StepCount::Fixed(3), Some(v), jac);
    let d = p.function(
        "defect",
        2,
        n,
        1,
        Op::Func(f).at(&[0, 0]) - stencil_2d(Op::Func(pre), &five(), 1.0),
    );
    let r = p.restrict_fn(
        "restrict",
        2,
        nc,
        0,
        restrict_full_weighting_2d(Op::Func(d)),
    );
    let e = p.interp_fn("interp", 2, n, 1, r);
    let c = p.function(
        "correct",
        2,
        n,
        1,
        Op::Func(pre).at(&[0, 0]) + Op::Func(e).at(&[0, 0]),
    );
    p.mark_output(c);
    p
}

/// [`two_level`] with the variable-coefficient operator `a(x)·(A v)` in the
/// smoother step and the defect: every tap of those stages carries a
/// coefficient factor read from the third input `A`.
fn two_level_varcoef(n: i64, nc: i64) -> Pipeline {
    let mut p = Pipeline::new("cgenvc");
    let v = p.input("V", 2, n, 1);
    let f = p.input("F", 2, n, 1);
    let a = p.coeff_input("A", 2, n, 1);
    let av = p.function(
        "apply_a",
        2,
        n,
        1,
        Op::Func(a).at(&[0, 0]) * stencil_2d(Op::Func(v), &five(), 1.0),
    );
    let pre = p.function(
        "pre",
        2,
        n,
        1,
        Op::Func(v).at(&[0, 0]) - 0.2 * (Op::Func(av).at(&[0, 0]) - Op::Func(f).at(&[0, 0])),
    );
    let d = p.function(
        "defect",
        2,
        n,
        1,
        Op::Func(f).at(&[0, 0]) - Op::Func(a).at(&[0, 0]) * stencil_2d(Op::Func(pre), &five(), 1.0),
    );
    let r = p.restrict_fn(
        "restrict",
        2,
        nc,
        0,
        restrict_full_weighting_2d(Op::Func(d)),
    );
    let e = p.interp_fn("interp", 2, n, 1, r);
    let c = p.function(
        "correct",
        2,
        n,
        1,
        Op::Func(pre).at(&[0, 0]) + Op::Func(e).at(&[0, 0]),
    );
    p.mark_output(c);
    p
}

/// Compile the emitted C together with a main() that loads inputs from a
/// binary file and writes the output grid; run it; return the output grid.
fn run_c(c_src: &str, fn_name: &str, inputs: &[(&str, &[f64])], out_len: usize) -> Vec<f64> {
    // one directory per call: the tests of this file run on parallel threads
    // of one process, and each compiles, executes and reads back its own files
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "polymg_cgen_{}_{fn_name}_{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let c_path = dir.join("gen.c");
    let bin_path = dir.join("gen.bin");
    let in_path = dir.join("input.raw");
    let out_path = dir.join("output.raw");

    // inputs concatenated in call order
    let mut blob: Vec<u8> = Vec::new();
    for (_, data) in inputs {
        for v in *data {
            blob.extend_from_slice(&v.to_le_bytes());
        }
    }
    std::fs::write(&in_path, &blob).unwrap();

    let mut main_src = String::new();
    main_src.push_str("#include <stdio.h>\n");
    main_src.push_str("int main(void) {\n");
    let mut args = Vec::new();
    for (name, data) in inputs {
        main_src.push_str(&format!("  static double {name}[{}];\n", data.len()));
        args.push((*name).to_string());
    }
    main_src.push_str(&format!("  static double OUT[{out_len}];\n"));
    main_src.push_str(&format!(
        "  FILE* fi = fopen(\"{}\", \"rb\");\n",
        in_path.display()
    ));
    for (name, data) in inputs {
        main_src.push_str(&format!(
            "  if (fread({name}, sizeof(double), {len}, fi) != {len}) return 2;\n",
            len = data.len()
        ));
    }
    main_src.push_str("  fclose(fi);\n");
    // the output parameter is the last external array; our pipelines bind
    // it by name, the C signature takes externals in array-id order
    main_src.push_str(&format!("  pipeline_{fn_name}("));
    main_src.push_str(&args.join(", "));
    main_src.push_str(", OUT);\n");
    main_src.push_str(&format!(
        "  FILE* fo = fopen(\"{}\", \"wb\");\n",
        out_path.display()
    ));
    main_src.push_str(&format!(
        "  fwrite(OUT, sizeof(double), {out_len}, fo); fclose(fo);\n"
    ));
    main_src.push_str("  return 0;\n}\n");

    let full = format!("{c_src}\n{main_src}");
    let mut fh = std::fs::File::create(&c_path).unwrap();
    fh.write_all(full.as_bytes()).unwrap();
    drop(fh);

    let cc = Command::new("cc")
        .args(["-O2", "-ffp-contract=off", "-o"])
        .arg(&bin_path)
        .arg(&c_path)
        .arg("-lm")
        .output()
        .expect("cc failed to spawn");
    assert!(
        cc.status.success(),
        "cc failed:\n{}",
        String::from_utf8_lossy(&cc.stderr)
    );
    let run = Command::new(&bin_path).output().expect("run failed");
    assert!(run.status.success(), "generated binary crashed");

    let bytes = std::fs::read(&out_path).unwrap();
    assert_eq!(bytes.len(), out_len * 8);
    let _ = std::fs::remove_dir_all(&dir);
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn plan_of(p: &Pipeline, variant: Variant) -> polymg::CompiledPipeline {
    let mut opts = PipelineOptions::for_variant(variant, 2);
    opts.tile_sizes = vec![8, 16];
    compile(p, &ParamBindings::new(), opts).unwrap()
}

/// Emit C for `p` (inputs `V`, `F` and, when `varcoef`, a non-constant
/// positive `A`), run it, and compare the `correct` grid with the engine's.
fn check(p: &Pipeline, varcoef: bool, variant: Variant) {
    if !have_cc() {
        eprintln!("no cc on PATH; skipping C codegen test");
        return;
    }
    let n = 31usize;
    let e = n + 2;
    let plan = plan_of(p, variant);
    let c_src = codegen::emit_c(&plan);

    // deterministic inputs
    let mut vin = vec![0.0; e * e];
    let mut fin = vec![0.0; e * e];
    let mut ain = vec![0.0; e * e];
    for y in 1..=n {
        for x in 1..=n {
            vin[y * e + x] = ((y * 13 + x * 7) % 9) as f64 * 0.25 - 1.0;
            fin[y * e + x] = ((y * 5 + x * 11) % 7) as f64 * 0.5 - 1.5;
            ain[y * e + x] = ((y * 3 + x * 5) % 11) as f64 * 0.05 + 0.75;
        }
    }
    let mut inputs: Vec<(&str, &[f64])> = vec![("V", &vin), ("F", &fin)];
    if varcoef {
        inputs.push(("A", &ain));
    }

    // engine result
    let mut engine = Engine::new(plan);
    let mut want = vec![0.0; e * e];
    engine.run(&inputs, vec![("correct", &mut want)]).unwrap();

    // generated-C result
    let got = run_c(&c_src, p.name(), &inputs, e * e);
    let differ: Vec<usize> = (0..got.len())
        .filter(|&i| got[i].to_bits() != want[i].to_bits())
        .collect();
    if let Some(&i) = differ.first() {
        panic!(
            "{} {}: {} of {} values differ from the engine's bits; first at {i}: C {:e}, engine {:e}",
            p.name(),
            variant.label(),
            differ.len(),
            got.len(),
            got[i],
            want[i]
        );
    }
}

fn check_variant(variant: Variant) {
    check(&two_level(31, 15), false, variant);
}

#[test]
fn generated_c_matches_engine_naive() {
    check_variant(Variant::Naive);
}

#[test]
fn generated_c_matches_engine_opt() {
    check_variant(Variant::Opt);
}

#[test]
fn generated_c_matches_engine_opt_plus() {
    check_variant(Variant::OptPlus);
}

#[test]
fn generated_c_matches_engine_dtile() {
    check_variant(Variant::DtileOptPlus);
}

#[test]
fn generated_c_has_figure8_shape() {
    let c = codegen::emit_c(&plan_of(&two_level(31, 15), Variant::OptPlus));
    // the Figure 8 landmarks
    assert!(c.contains("pool_allocate"));
    assert!(c.contains("pool_deallocate"));
    assert!(c.contains("#pragma omp parallel for schedule(static) collapse("));
    assert!(c.contains("#pragma ivdep"));
    assert!(c.contains("/* users :"));
    assert!(c.contains("double _buf_"));
    assert!(c.contains("MAX(") && c.contains("MIN("));
    assert!(c.contains("void pipeline_cgen(double* V, double* F, double* correct)"));
}

#[test]
fn generated_c_matches_engine_varcoef() {
    let p = two_level_varcoef(31, 15);
    check(&p, true, Variant::Naive);
    check(&p, true, Variant::OptPlus);
}

#[test]
fn generated_c_reads_the_coefficient_array() {
    // the runtime's association, weight first: (coeff * A[..]) * V[..]
    let c = codegen::emit_c(&plan_of(&two_level_varcoef(31, 15), Variant::Naive));
    assert!(c.contains("double* V, double* F, double* A, double* correct)"));
    assert!(c.contains("(4.0 * A[(i)*33 + j]) * V[(i)*33 + j]"), "{c}");
}
