//! Driving the chip through the hybrid ISA (§4.4's expert path): assemble
//! a program that allocates a vACore, programs a matrix, and runs a hybrid
//! MVM, then disassemble and execute it.
//!
//! Run with: `cargo run --release --example isa_program`

use darth_digital::DcePipeline;
use darth_isa::asm::{assemble, disassemble_program};
use darth_pum::chip::{DarthPumChip, SideChannel};
use darth_pum::hct::HctConfig;
use darth_pum::params::ChipParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut chip = DarthPumChip::new(ChipParams::default(), HctConfig::small_test())?;
    let mut data = SideChannel::new();
    let matrix_handle = data.stage_matrix(vec![vec![5, 9], vec![8, 7]])?;

    let source = format!(
        "# Figure 9's walkthrough as an ISA program\n\
         valloc ac0 4 4 3 0\n\
         progm ac0 {matrix_handle}\n\
         wimm p0 v0 0 2\n\
         wimm p0 v0 1 7\n\
         mvm ac0 p0 v0 p1 v4 0\n\
         halt\n"
    );
    let program = assemble(&source)?;
    println!("assembled {} instructions:", program.len());
    print!("{}", disassemble_program(&program));

    let stats = chip.execute(&program, &data)?;
    println!(
        "\nexecuted {} instructions ({} analog)",
        stats.instructions, stats.analog_instructions
    );
    let pipe = chip.tile_mut().pipeline_mut(1)?;
    let result = [pipe.read_value(4, 0)?, pipe.read_value(4, 1)?];
    println!("MVM result: {result:?} (Figure 9 expects [66, 67])");
    assert_eq!(result, [66, 67]);
    Ok(())
}
