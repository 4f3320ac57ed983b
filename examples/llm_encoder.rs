//! An integer transformer encoder pass (§5.2): I-BERT kernels with the
//! DCE-attention / ACE-FFN placement, plus the BERT-base workload stream.
//!
//! Run with: `cargo run --release --example llm_encoder`

use darth_apps::llm::encoder::{Encoder, EncoderConfig};
use darth_apps::llm::intops::to_q;
use darth_apps::llm::workload::EncoderWorkload;
use darth_pum::eval::Workload;
use darth_pum::trace::TraceSummary;
use darth_reram::NoiseRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = EncoderConfig::tiny();
    let encoder = Encoder::new(cfg, 5)?;
    let mut rng = NoiseRng::seed_from(1);
    let input: Vec<Vec<i64>> = (0..cfg.seq_len)
        .map(|_| {
            (0..cfg.d_model)
                .map(|_| to_q(rng.gaussian(0.0, 1.0)))
                .collect()
        })
        .collect();
    let output = encoder.forward(&input)?;
    println!(
        "encoder: {} layers, d_model {}, seq {} -> output {}x{}",
        cfg.layers,
        cfg.d_model,
        cfg.seq_len,
        output.len(),
        output[0].len()
    );

    let trace = TraceSummary::record(|r| EncoderWorkload::paper().emit(r));
    println!("\nBERT-base trace (per sequence):");
    for kernel in &trace.kernels {
        println!(
            "  {:<12} {:>12} MACs (ACE) {:>14} element-ops (DCE)",
            kernel.name,
            kernel.macs(),
            kernel.element_ops()
        );
    }
    println!(
        "MVM fraction of raw ops: {:.1}% (the paper: 71% of *time* is non-MVM)",
        trace.mvm_fraction() * 100.0
    );
    Ok(())
}
