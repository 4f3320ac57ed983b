//! Comparison architecture models for the DARTH-PUM evaluation.
//!
//! Each model prices the same op streams the DARTH-PUM model prices —
//! every model is a streaming [`darth_pum::eval::CostAccumulator`],
//! priced through the one provided [`darth_pum::eval::ArchModel::price`]
//! (live scenarios and recorded summaries alike) — producing
//! [`darth_pum::trace::CostReport`]s whose ratios are Figures 13–18:
//!
//! * [`cpu`] — an analytical out-of-order CPU (the i7-13700-class host and
//!   the §3 Arm core), roofline-style over vector lanes and DRAM.
//! * [`analog_only`] — the paper's **Baseline**: an analog PUM accelerator
//!   for MVMs with every non-MVM kernel on the CPU, paying host↔accelerator
//!   movement at each domain crossing.
//! * [`digital_only`] — **DigitalPUM**: an iso-area RACER chip (OSCAR
//!   family, two active pipelines per cluster for thermals).
//! * [`app_accel`] — **AppAccel**: AES-NI, a ramp-ADC CNN accelerator with
//!   dedicated shift-and-add, and an ISAAC-style transformer accelerator
//!   with SFUs.
//! * [`gpu`] — an RTX-4090-class GPU model for Figure 18.
//! * [`naive_hybrid`] — the §3 motivation sweep (Figure 7): nine D/A array
//!   splits with none of DARTH-PUM's coordination hardware.

pub mod analog_only;
pub mod app_accel;
pub mod cpu;
pub mod digital_only;
pub mod gpu;
pub mod naive_hybrid;

pub use analog_only::BaselineModel;
pub use app_accel::AppAccelModel;
pub use cpu::CpuModel;
pub use digital_only::DigitalPumModel;
pub use gpu::GpuModel;
pub use naive_hybrid::NaiveHybridConfig;
