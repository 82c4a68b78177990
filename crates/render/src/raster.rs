//! Z-buffered software rasterization.

use crate::camera::Camera;
use crate::import::DxField;
use qbism_geometry::{TriMesh, Vec3};
use qbism_sfc::SpaceFillingCurve;
use qbism_volume::Volume;

/// An 8-bit RGB pixel.
pub type Rgb = [u8; 3];

/// A fixed-size RGB framebuffer with a float depth buffer.
#[derive(Debug, Clone)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    pixels: Vec<Rgb>,
    depth: Vec<f64>,
}

impl Framebuffer {
    /// A black framebuffer.
    ///
    /// # Panics
    /// Panics on zero dimensions.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "framebuffer must be non-empty");
        Framebuffer {
            width,
            height,
            pixels: vec![[0, 0, 0]; width * height],
            depth: vec![f64::INFINITY; width * height],
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Fraction of pixels that received any geometry.
    pub fn coverage(&self) -> f64 {
        let lit = self.depth.iter().filter(|d| d.is_finite()).count();
        lit as f64 / self.depth.len() as f64
    }

    /// Serializes as a binary PPM (P6) image.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for px in &self.pixels {
            out.extend_from_slice(px);
        }
        out
    }

    fn plot(&mut self, x: usize, y: usize, depth: f64, color: Rgb) {
        let idx = y * self.width + x;
        if depth < self.depth[idx] {
            self.depth[idx] = depth;
            self.pixels[idx] = color;
        }
    }
}

/// Renders meshes and imported fields into a [`Framebuffer`].
#[derive(Debug)]
pub struct Rasterizer {
    fb: Framebuffer,
    camera: Camera,
    /// Light direction (towards the light, unit).
    light: Vec3,
    /// Triangles actually rasterized (the "rendering +" workload).
    pub triangles_drawn: u64,
    /// Points splatted.
    pub points_drawn: u64,
}

impl Rasterizer {
    /// A rasterizer with a default head-on light.
    pub fn new(width: usize, height: usize, camera: Camera) -> Self {
        Rasterizer {
            fb: Framebuffer::new(width, height),
            light: (-camera.forward()).normalized(),
            camera,
            triangles_drawn: 0,
            points_drawn: 0,
        }
    }

    /// Consumes the rasterizer, returning the image.
    pub fn finish(self) -> Framebuffer {
        self.fb
    }

    fn to_screen(&self, ndc_x: f64, ndc_y: f64) -> (f64, f64) {
        let w = self.fb.width as f64;
        let h = self.fb.height as f64;
        let aspect = w / h;
        ((ndc_x / aspect * 0.5 + 0.5) * w, (0.5 - ndc_y * 0.5) * h)
    }

    /// Draws a mesh with Gouraud-shaded Lambert lighting in `base` color,
    /// optionally modulating per-vertex brightness by a texture function
    /// (the paper's "solid-textured mapping of the intensity data onto
    /// the surfaces of the structures").
    pub fn draw_mesh<F: Fn(Vec3) -> f64>(&mut self, mesh: &TriMesh, base: Rgb, texture: F) {
        for tri in &mesh.triangles {
            let verts = mesh.corners(tri);
            let shades: Vec<f64> = tri
                .iter()
                .zip(verts.iter())
                .map(|(&vi, &v)| {
                    let n = mesh.normals[vi as usize];
                    let lambert = n.dot(self.light).max(0.0);
                    let tex = texture(v).clamp(0.0, 1.0);
                    (0.15 + 0.85 * lambert) * (0.25 + 0.75 * tex)
                })
                .collect();
            self.fill_triangle(verts, [shades[0], shades[1], shades[2]], base);
        }
    }

    /// Splats an imported intensity field as screen-space points —
    /// the "just the intensity data" display mode.
    pub fn draw_field(&mut self, field: &DxField) {
        for (pos, &v) in field.positions.iter().zip(&field.values) {
            let Some((nx, ny, depth)) = self.camera.project(*pos) else { continue };
            let (sx, sy) = self.to_screen(nx, ny);
            let (x, y) = (sx.round() as i64, sy.round() as i64);
            if x < 0 || y < 0 || x >= self.fb.width as i64 || y >= self.fb.height as i64 {
                continue;
            }
            // Hot colormap: black -> red -> yellow -> white.
            let t = f64::from(v);
            let color = [
                (255.0 * (t * 3.0).min(1.0)) as u8,
                (255.0 * ((t - 0.33) * 3.0).clamp(0.0, 1.0)) as u8,
                (255.0 * ((t - 0.66) * 3.0).clamp(0.0, 1.0)) as u8,
            ];
            self.fb.plot(x as usize, y as usize, depth, color);
            self.points_drawn += 1;
        }
    }

    /// Convenience: texture a mesh by probing a VOLUME at each vertex
    /// (Figure 6c's display mode).
    pub fn draw_mesh_textured_by_volume(&mut self, mesh: &TriMesh, base: Rgb, volume: &Volume) {
        let geom = volume.geometry();
        let side = geom.side();
        let curve = geom.curve();
        self.draw_mesh(mesh, base, |p| {
            let clamp = |v: f64| (v.max(0.0) as u32).min(side - 1);
            let id = curve.index_of(&[clamp(p.x - 0.5), clamp(p.y - 0.5), clamp(p.z - 0.5)]);
            f64::from(volume.at_id(id)) / 255.0
        });
    }

    fn fill_triangle(&mut self, verts: [Vec3; 3], shades: [f64; 3], base: Rgb) {
        // Project all three corners; skip triangles crossing the camera
        // plane (fine for meshes well inside the view volume).
        let mut pts = [(0.0f64, 0.0f64, 0.0f64); 3];
        for (slot, v) in pts.iter_mut().zip(verts.iter()) {
            match self.camera.project(*v) {
                Some((nx, ny, d)) => {
                    let (sx, sy) = self.to_screen(nx, ny);
                    *slot = (sx, sy, d);
                }
                None => return,
            }
        }
        self.triangles_drawn += 1;
        let (x0, y0, z0) = pts[0];
        let (x1, y1, z1) = pts[1];
        let (x2, y2, z2) = pts[2];
        let area = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0);
        if area.abs() < 1e-12 {
            return;
        }
        let min_x = x0.min(x1).min(x2).floor().max(0.0) as usize;
        let max_x = (x0.max(x1).max(x2).ceil() as usize).min(self.fb.width - 1);
        let min_y = y0.min(y1).min(y2).floor().max(0.0) as usize;
        let max_y = (y0.max(y1).max(y2).ceil() as usize).min(self.fb.height - 1);
        for py in min_y..=max_y {
            for px in min_x..=max_x {
                let (fx, fy) = (px as f64 + 0.5, py as f64 + 0.5);
                // Barycentric coordinates via edge functions.
                let w0 = ((x1 - fx) * (y2 - fy) - (y1 - fy) * (x2 - fx)) / area;
                let w1 = ((x2 - fx) * (y0 - fy) - (y2 - fy) * (x0 - fx)) / area;
                let w2 = 1.0 - w0 - w1;
                if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                    continue;
                }
                let depth = w0 * z0 + w1 * z1 + w2 * z2;
                let shade = (w0 * shades[0] + w1 * shades[1] + w2 * shades[2]).clamp(0.0, 1.0);
                let color = [
                    (f64::from(base[0]) * shade) as u8,
                    (f64::from(base[1]) * shade) as u8,
                    (f64::from(base[2]) * shade) as u8,
                ];
                self.fb.plot(px, py, depth, color);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract_surface;
    use crate::import::import_data_region;
    use qbism_geometry::Sphere;
    use qbism_region::{GridGeometry, Region};
    use qbism_sfc::CurveKind;
    use qbism_volume::DataRegion;

    /// Pixel at `(x, y)`; row 0 is the top.
    fn pixel(fb: &Framebuffer, x: usize, y: usize) -> Rgb {
        fb.pixels[y * fb.width + x]
    }

    fn geom() -> GridGeometry {
        GridGeometry::new(CurveKind::Hilbert, 3, 4)
    }

    fn ball_region() -> Region {
        Region::rasterize_solid(geom(), &Sphere::new(Vec3::splat(8.0), 5.0))
    }

    #[test]
    fn framebuffer_basics_and_ppm() {
        let fb = Framebuffer::new(4, 2);
        assert_eq!(fb.width(), 4);
        assert_eq!(fb.height(), 2);
        assert_eq!(pixel(&fb, 0, 0), [0, 0, 0]);
        assert_eq!(fb.coverage(), 0.0);
        let ppm = fb.to_ppm();
        assert!(ppm.starts_with(b"P6\n4 2\n255\n"));
        assert_eq!(ppm.len(), 11 + 4 * 2 * 3);
    }

    #[test]
    fn mesh_renders_with_coverage_and_depth() {
        let mesh = extract_surface(&ball_region());
        let cam = Camera::default_for_grid(16);
        let mut r = Rasterizer::new(96, 96, cam);
        r.draw_mesh(&mesh, [200, 180, 160], |_| 1.0);
        assert!(r.triangles_drawn > 100);
        let fb = r.finish();
        let cov = fb.coverage();
        assert!((0.02..0.8).contains(&cov), "ball should cover part of the frame, coverage {cov}");
        // Lit pixels carry non-black color somewhere.
        let lit = (0..96)
            .flat_map(|y| (0..96).map(move |x| (x, y)))
            .filter(|&(x, y)| pixel(&fb, x, y) != [0, 0, 0])
            .count();
        assert!(lit > 50, "only {lit} lit pixels");
    }

    #[test]
    fn occlusion_front_voxel_wins() {
        // Two points along the view ray: the nearer one must own the pixel.
        // Put both voxel centres exactly on the optical axis so they
        // project to the same pixel despite the perspective divide.
        let cam = Camera::look_at(Vec3::new(40.0, 8.5, 8.5), Vec3::new(0.0, 8.5, 8.5), 0.6);
        let g = geom();
        let near_id = g.index_of(&[12, 8, 8]);
        let far_id = g.index_of(&[2, 8, 8]);
        let region = Region::from_ids(g, vec![near_id, far_id]);
        // Align values with region curve order.
        let (first, _second) = {
            let ids: Vec<u64> = region.iter_ids().collect();
            (ids[0], ids[1])
        };
        let values = if first == near_id { vec![255u8, 10] } else { vec![10u8, 255] };
        let dr = DataRegion::new(region, values);
        let field = import_data_region(&dr);
        let mut r = Rasterizer::new(64, 64, cam);
        r.draw_field(&field);
        assert_eq!(r.points_drawn, 2);
        let fb = r.finish();
        // Both points project to the same pixel; the nearer (value 255,
        // white in the hot colormap) must win the depth test.  Find the
        // single lit pixel rather than hard-coding projection math.
        let lit: Vec<Rgb> = (0..64)
            .flat_map(|y| (0..64).map(move |x| (x, y)))
            .map(|(x, y)| pixel(&fb, x, y))
            .filter(|c| *c != [0, 0, 0])
            .collect();
        assert_eq!(lit.len(), 1, "both points should land on one pixel");
        assert!(lit[0][0] > 200 && lit[0][1] > 150, "expected near bright point, got {:?}", lit[0]);
    }

    #[test]
    fn textured_mesh_modulates_brightness() {
        let region = ball_region();
        let mesh = extract_surface(&region);
        let cam = Camera::default_for_grid(16);
        // Dark volume vs bright volume -> darker vs brighter image.
        let dark = Volume::filled(geom(), 10);
        let bright = Volume::filled(geom(), 250);
        let total = |vol: &Volume| -> u64 {
            let mut r = Rasterizer::new(64, 64, cam);
            r.draw_mesh_textured_by_volume(&mesh, [255, 255, 255], vol);
            let fb = r.finish();
            (0..64)
                .flat_map(|y| (0..64).map(move |x| (x, y)))
                .map(|(x, y)| pixel(&fb, x, y)[0] as u64)
                .sum()
        };
        assert!(total(&bright) > total(&dark) * 2, "texture should modulate shading");
    }

    #[test]
    fn points_outside_frustum_are_skipped() {
        let cam = Camera::look_at(Vec3::new(40.0, 8.0, 8.0), Vec3::new(0.0, 8.0, 8.0), 0.3);
        let g = geom();
        let region = Region::from_ids(g, vec![g.index_of(&[15, 15, 15])]);
        let dr = DataRegion::new(region, vec![200]);
        let field = import_data_region(&dr);
        let mut r = Rasterizer::new(32, 32, cam);
        r.draw_field(&field);
        // A very narrow fov: the corner voxel lands off screen.
        assert_eq!(r.points_drawn, 0);
    }
}
