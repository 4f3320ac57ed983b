//! ResNet-20 quantized inference with the §7.5 noise experiment: train the
//! classifier on synthetic data, then compare digital-exact and
//! analog-noisy accuracy.
//!
//! Run with: `cargo run --release --example resnet_inference`

use darth_apps::cnn::data::{evaluate, train_classifier, Dataset};
use darth_apps::cnn::resnet::{AnalogNoise, ResNet};
use darth_apps::cnn::workload::emit_inference;
use darth_pum::trace::TraceSummary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A reduced-size network keeps the example fast; the bench harness
    // runs the full 32x32 configuration.
    let mut net = ResNet::new(16, 8, 3, 10, 42)?;
    let data = Dataset::synthetic(120, 16, 10, 7)?;
    let (train, test) = data.split(0.7);

    let train_acc = train_classifier(&mut net, &train, 40, 11)?;
    let clean = evaluate(&net, &test, &AnalogNoise::none(), 13)?;
    let noisy = evaluate(&net, &test, &AnalogNoise::evaluation(), 13)?;
    println!("train accuracy:              {:.1}%", train_acc * 100.0);
    println!("test accuracy (digital):     {:.1}%", clean * 100.0);
    println!("test accuracy (analog+ADC):  {:.1}%", noisy * 100.0);

    // The Figure 15 workload stream for the full network, recorded.
    let full = ResNet::resnet20(1)?;
    let trace = TraceSummary::record(|r| emit_inference(&full, "resnet-20", r));
    println!(
        "\nfull ResNet-20 trace: {} layers, {:.1}M MACs, {:.1}% MVM work",
        trace.kernel_count(),
        trace.macs() as f64 / 1e6,
        trace.mvm_fraction() * 100.0
    );
    Ok(())
}
