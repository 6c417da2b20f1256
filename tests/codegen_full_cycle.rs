//! Full-cycle C codegen: emit the Figure-8 C for complete V- and W-cycle
//! plans (all levels, both smoothing configs), compile with the system C
//! compiler (`-O2 -ffp-contract=off`, so no multiply-add is fused) and
//! require the engine's output bit for bit.

use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::cycles::build_cycle_pipeline;
use gmg_multigrid::solver::setup_poisson;
use gmg_runtime::Engine;
use polymg::{codegen, compile, PipelineOptions, Variant};
use std::process::Command;

fn have_cc() -> bool {
    Command::new("cc")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

fn run_c_cycle(cfg: &MgConfig, variant: Variant) {
    if !have_cc() {
        eprintln!("no cc; skipping");
        return;
    }
    let pipeline = build_cycle_pipeline(cfg);
    let mut opts = PipelineOptions::for_variant(variant, 2);
    opts.tile_sizes = vec![8, 16];
    let plan = compile(&pipeline, &gmg_ir::ParamBindings::new(), opts).unwrap();
    let fn_name: String = plan
        .graph
        .pipeline_name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let c_src = codegen::emit_c(&plan);

    let (v0, f, _) = setup_poisson(cfg);
    let e = (cfg.n_at(cfg.levels - 1) + 2) as usize;
    // engine result for one cycle from a non-trivial iterate
    let mut v = v0.clone();
    for (i, x) in v.iter_mut().enumerate() {
        let (y, xx) = (i / e, i % e);
        if y > 0 && y < e - 1 && xx > 0 && xx < e - 1 {
            *x = ((i * 17) % 13) as f64 * 0.1 - 0.6;
        }
    }
    let mut engine = Engine::new(plan);
    let mut want = vec![0.0; e * e];
    engine
        .run(&[("V", &v), ("F", &f)], vec![("out", &mut want)])
        .unwrap();

    // generated C
    let dir = std::env::temp_dir().join(format!(
        "polymg_cgen_cycle_{}_{}",
        std::process::id(),
        fn_name
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let c_path = dir.join("gen.c");
    let bin = dir.join("gen.bin");
    let in_path = dir.join("in.raw");
    let out_path = dir.join("out.raw");
    let mut blob = Vec::new();
    for d in [&v, &f] {
        for x in d {
            blob.extend_from_slice(&x.to_le_bytes());
        }
    }
    std::fs::write(&in_path, blob).unwrap();
    let main_src = format!(
        r#"
#include <stdio.h>
int main(void) {{
  static double V[{len}], F[{len}], OUT[{len}];
  FILE* fi = fopen("{inp}", "rb");
  if (fread(V, 8, {len}, fi) != {len}) return 2;
  if (fread(F, 8, {len}, fi) != {len}) return 2;
  fclose(fi);
  pipeline_{fn_name}(V, F, OUT);
  FILE* fo = fopen("{outp}", "wb");
  fwrite(OUT, 8, {len}, fo); fclose(fo);
  return 0;
}}
"#,
        len = e * e,
        inp = in_path.display(),
        outp = out_path.display(),
    );
    std::fs::write(&c_path, format!("{c_src}\n{main_src}")).unwrap();
    let cc = Command::new("cc")
        .args(["-O2", "-ffp-contract=off", "-o"])
        .arg(&bin)
        .arg(&c_path)
        .output()
        .unwrap();
    assert!(
        cc.status.success(),
        "cc failed for {}:\n{}",
        cfg.tag(),
        String::from_utf8_lossy(&cc.stderr)
    );
    assert!(Command::new(&bin).status().unwrap().success());
    let bytes = std::fs::read(&out_path).unwrap();
    let got: Vec<f64> = bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(got.len(), want.len());
    let differ: Vec<usize> = (0..got.len())
        .filter(|&i| got[i].to_bits() != want[i].to_bits())
        .collect();
    if let Some(&i) = differ.first() {
        panic!(
            "{} [{}]: {} of {} values differ from the engine's bits; first at {i}: C {:e}, engine {:e}",
            cfg.tag(),
            variant.label(),
            differ.len(),
            got.len(),
            got[i],
            want[i]
        );
    }
}

#[test]
fn v_cycle_444_codegen() {
    run_c_cycle(
        &MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444()),
        Variant::OptPlus,
    );
}

#[test]
fn v_cycle_1000_codegen() {
    run_c_cycle(
        &MgConfig::new(2, 31, CycleType::V, SmoothSteps::s1000()),
        Variant::OptPlus,
    );
}

#[test]
fn w_cycle_444_codegen() {
    run_c_cycle(
        &MgConfig::new(2, 31, CycleType::W, SmoothSteps::s444()),
        Variant::OptPlus,
    );
}

#[test]
fn w_cycle_dtile_codegen() {
    run_c_cycle(
        &MgConfig::new(2, 31, CycleType::W, SmoothSteps::s444()),
        Variant::DtileOptPlus,
    );
}

#[test]
fn gsrb_codegen() {
    run_c_cycle(
        &MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444()).with_gsrb(),
        Variant::OptPlus,
    );
}
