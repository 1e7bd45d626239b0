//! Compilation, untraced and traced.
//!
//! `compile_source` is opaque from outside, so the traced run drives the
//! same chain of public functions it calls, in the same order, each under
//! its layer's span. `check_same` then proves the chain built the same
//! artifacts as `compile_source`, so the traced run measures the chain
//! the program runs, not a different one.

use mekong_analysis::{AppModel, ValueRanges};
use mekong_core::{compile_source, CompileStats, CompiledProgram};
use mekong_runtime::CompiledKernel;

use crate::trace::{self, Kind};

/// Compile `src`: through `compile_source` when tracing is off, through
/// the traced chain inside a `core.compile` span when it is on.
pub fn compile(src: &str) -> Result<CompiledProgram, String> {
    if !trace::enabled() {
        return compile_source(src).map_err(|e| e.to_string());
    }
    trace::span_res(Kind::CoreCompile, || traced_chain(src))
}

fn parse(src: &str) -> Result<mekong_frontend::Program, String> {
    trace::span_res(Kind::FrontendParse, || {
        mekong_frontend::parse_program(src).map_err(|e| e.to_string())
    })
}

/// The chain of `mekong_core::pipeline::compile_source`: a validating
/// baseline parse, pass 1 (parse, annotations, analysis, model to JSON),
/// the host rewrite (parse, rewrite), and pass 2 (parse, model from JSON,
/// enumerators, safety check, partition transform per kernel). The model's
/// trip through JSON is the on-disk hand-over between the passes, so it is
/// timed as part of `core`.
fn traced_chain(src: &str) -> Result<CompiledProgram, String> {
    for k in &parse(src)?.kernels {
        k.validate()
            .map_err(|e| format!("kernel {}: {e}", k.name))?;
    }

    let prog = parse(src)?;
    let annotations = mekong_analysis::scan_annotations(src)?;
    let ranges = mekong_analysis::value_ranges(&annotations)?;
    let empty = ValueRanges::new();
    let mut model = AppModel::default();
    for k in &prog.kernels {
        let mut km = trace::span_res(Kind::AnalysisAnalyze, || {
            mekong_analysis::analyze_kernel_with(k, ranges.get(&k.name).unwrap_or(&empty))
        })
        .map_err(|e| e.to_string())?;
        mekong_analysis::apply_annotations(&mut km, &annotations).map_err(|e| e.to_string())?;
        model.kernels.push(km);
    }
    let model_json = trace::span(Kind::CoreModelJson, || model.to_json());

    let prog1 = parse(src)?;
    let rewritten = trace::span_res(Kind::RewriterRewrite, || {
        mekong_rewriter::rewrite_host(&prog1.host_source)
    })
    .map_err(|e| e.to_string())?;

    let prog2 = parse(src)?;
    let model = trace::span_res(Kind::CoreModelJson, || AppModel::from_json(&model_json))
        .map_err(|e| e.to_string())?;
    let mut kernels = Vec::with_capacity(prog2.kernels.len());
    for k in &prog2.kernels {
        let km = model
            .kernel(&k.name)
            .cloned()
            .ok_or_else(|| format!("model lacks kernel {}", k.name))?;
        let enums = trace::span_res(Kind::EnumgenBuild, || {
            mekong_enumgen::KernelEnumerators::build(&km)
        })
        .map_err(|e| e.to_string())?;
        let safe_axes = trace::span_res(Kind::CheckSafeAxes, || mekong_check::safe_axes(&km))
            .map_err(|e| e.to_string())?;
        let partitioned = trace::span(Kind::PartitionTransform, || {
            mekong_partition::partition_kernel(k)
        });
        kernels.push(CompiledKernel {
            original: k.clone(),
            partitioned,
            model: km,
            enums,
            safe_axes,
        });
    }
    Ok(CompiledProgram {
        model,
        model_json,
        kernels,
        rewritten_host: rewritten.source,
        launch_sites: rewritten.launches,
        stats: CompileStats::default(),
    })
}

/// Do two compilations agree on every artifact the runtime uses?
pub fn check_same(a: &CompiledProgram, b: &CompiledProgram) -> Result<(), String> {
    let dbg = |p: &CompiledProgram| -> Vec<String> {
        p.kernels
            .iter()
            .map(|k| {
                format!(
                    "{:?}|{:?}|{:?}|{:?}",
                    k.original, k.partitioned, k.model, k.safe_axes
                )
            })
            .collect()
    };
    if a.model_json != b.model_json || a.rewritten_host != b.rewritten_host || dbg(a) != dbg(b) {
        return Err("traced compile chain differs from compile_source".into());
    }
    Ok(())
}
