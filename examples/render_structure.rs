//! Figure 6 reproduced: render (a) an atlas structure, (b) the PET data
//! inside it, (c) the PET data mapped onto its surface.  Writes three
//! PPM images to the working directory.
//!
//! ```sh
//! cargo run --release --example render_structure [structure] [out_dir]
//! ```

#![allow(clippy::indexing_slicing)]

use qbism::{QbismConfig, QbismSystem};
use qbism_render::{import_data_region, Camera, Rasterizer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let structure = args.next().unwrap_or_else(|| "ntal1".to_string());
    let out_dir = args.next().unwrap_or_else(|| ".".to_string());
    let config = QbismConfig::medium();
    let sys = QbismSystem::install(&config)?;
    let study = sys.pet_study_ids[0];
    let camera = Camera::default_for_grid(config.side());
    const W: usize = 512;
    const H: usize = 512;

    // (a) The structure itself: stored surface mesh, flat white shading.
    let mesh = sys.server.structure_mesh(&structure)?;
    let mut r = Rasterizer::new(W, H, camera);
    r.draw_mesh(&mesh, [225, 205, 185], |_| 1.0);
    let fb = r.finish();
    let path_a = format!("{out_dir}/{structure}_a_structure.ppm");
    std::fs::write(&path_a, fb.to_ppm())?;
    println!(
        "(a) {} — {} triangles, coverage {:.1}% -> {path_a}",
        structure,
        mesh.triangle_count(),
        fb.coverage() * 100.0
    );

    // (b) The intensity data inside the structure: point splats.
    let answer = sys.server.structure_data(study, &structure)?;
    let field = import_data_region(&answer.data);
    let mut r = Rasterizer::new(W, H, camera);
    r.draw_field(&field);
    let fb = r.finish();
    let path_b = format!("{out_dir}/{structure}_b_data.ppm");
    std::fs::write(&path_b, fb.to_ppm())?;
    println!("(b) PET data inside {} — {} voxels splatted -> {path_b}", structure, field.len());

    // (c) The data texture-mapped onto the surface ("note the difference
    // in shading between a and c").
    let volume = sys.server.warped_volume(study)?;
    let mut r = Rasterizer::new(W, H, camera);
    r.draw_mesh_textured_by_volume(&mesh, [255, 235, 215], &volume);
    let fb = r.finish();
    let path_c = format!("{out_dir}/{structure}_c_textured.ppm");
    std::fs::write(&path_c, fb.to_ppm())?;
    println!("(c) PET texture on the {structure} surface -> {path_c}");
    Ok(())
}
