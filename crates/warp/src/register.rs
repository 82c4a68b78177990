//! Landmark-based affine registration.
//!
//! The cited warping methods (Pelizzari et al.; Toga et al.) ultimately
//! produce an affine matrix mapping patient space to atlas space.  We
//! derive that matrix the standard way: given corresponding landmark
//! pairs `(patient_i, atlas_i)` — anatomically identifiable points marked
//! in both frames — solve the least-squares problem
//! `min Σ ‖A p_i + t − a_i‖²`, which decouples into three 4-unknown
//! normal-equation systems (one per output coordinate).

use crate::linalg::solve_linear_system;
use qbism_geometry::{Affine3, Vec3};

/// Why a registration could not be computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistrationError {
    /// Fewer than 4 landmark pairs (an affine map has 12 unknowns; 4
    /// non-coplanar point pairs is the minimum).
    TooFewLandmarks {
        /// Pairs supplied.
        got: usize,
    },
    /// Input lists have different lengths.
    LengthMismatch,
    /// The landmarks are degenerate (coplanar/collinear), so the normal
    /// equations are singular.
    DegenerateLandmarks,
}

impl std::fmt::Display for RegistrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistrationError::TooFewLandmarks { got } => {
                write!(f, "affine registration needs at least 4 landmark pairs, got {got}")
            }
            RegistrationError::LengthMismatch => {
                write!(f, "patient and atlas landmark lists differ in length")
            }
            RegistrationError::DegenerateLandmarks => {
                write!(f, "landmarks are coplanar or collinear; affine map is underdetermined")
            }
        }
    }
}

impl std::error::Error for RegistrationError {}

/// Computes the least-squares affine map sending each `patient[i]` to
/// `atlas[i]`.
pub fn register_landmarks(patient: &[Vec3], atlas: &[Vec3]) -> Result<Affine3, RegistrationError> {
    if patient.len() != atlas.len() {
        return Err(RegistrationError::LengthMismatch);
    }
    if patient.len() < 4 {
        return Err(RegistrationError::TooFewLandmarks { got: patient.len() });
    }
    // Normal equations: X^T X beta_k = X^T y_k with X rows [px, py, pz, 1].
    let mut xtx = [0.0f64; 16];
    for p in patient {
        let row = [p.x, p.y, p.z, 1.0];
        for i in 0..4 {
            for j in 0..4 {
                xtx[i * 4 + j] += row[i] * row[j];
            }
        }
    }
    let mut m = [[0.0f64; 3]; 3];
    let mut t = [0.0f64; 3];
    for k in 0..3 {
        let mut xty = [0.0f64; 4];
        for (p, a) in patient.iter().zip(atlas) {
            let y = <[f64; 3]>::from(*a)[k];
            let row = [p.x, p.y, p.z, 1.0];
            for i in 0..4 {
                xty[i] += row[i] * y;
            }
        }
        let beta =
            solve_linear_system(4, &xtx, &xty).ok_or(RegistrationError::DegenerateLandmarks)?;
        m[k][0] = beta[0];
        m[k][1] = beta[1];
        m[k][2] = beta[2];
        t[k] = beta[3];
    }
    Ok(Affine3::new(m, Vec3::new(t[0], t[1], t[2])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn scatter(rng: &mut StdRng, n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                )
            })
            .collect()
    }

    #[test]
    fn recovers_exact_affine() {
        let truth = Affine3::rotation_z(0.3)
            .then(&Affine3::scaling(Vec3::new(1.2, 0.9, 1.1)))
            .then(&Affine3::translation(Vec3::new(10.0, -5.0, 3.0)));
        let mut rng = StdRng::seed_from_u64(7);
        let patient = scatter(&mut rng, 12);
        let atlas: Vec<Vec3> = patient.iter().map(|&p| truth.apply(p)).collect();
        let est = register_landmarks(&patient, &atlas).unwrap();
        assert!(est.max_abs_diff(&truth) < 1e-9, "diff {}", est.max_abs_diff(&truth));
    }

    #[test]
    fn minimum_four_noncoplanar_points() {
        let patient = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        let truth = Affine3::translation(Vec3::new(5.0, 6.0, 7.0));
        let atlas: Vec<Vec3> = patient.iter().map(|&p| truth.apply(p)).collect();
        let est = register_landmarks(&patient, &atlas).unwrap();
        assert!(est.max_abs_diff(&truth) < 1e-9);
    }

    #[test]
    fn too_few_landmarks() {
        let pts = vec![Vec3::ZERO, Vec3::ONE, Vec3::new(2.0, 0.0, 0.0)];
        assert_eq!(
            register_landmarks(&pts, &pts),
            Err(RegistrationError::TooFewLandmarks { got: 3 })
        );
    }

    #[test]
    fn mismatched_lengths() {
        let a = vec![Vec3::ZERO; 5];
        let b = vec![Vec3::ZERO; 4];
        assert_eq!(register_landmarks(&a, &b), Err(RegistrationError::LengthMismatch));
    }

    #[test]
    fn coplanar_landmarks_are_degenerate() {
        // All z = 0: the z column of the design matrix is linearly
        // dependent with nothing to constrain it.
        let patient: Vec<Vec3> =
            (0..8).map(|i| Vec3::new(f64::from(i), f64::from(i * i % 5), 0.0)).collect();
        let atlas = patient.clone();
        assert_eq!(
            register_landmarks(&patient, &atlas),
            Err(RegistrationError::DegenerateLandmarks)
        );
    }

    #[test]
    fn noisy_landmarks_recover_approximately() {
        // Landmark clicks are imprecise; least squares should average the
        // noise out.
        let truth = Affine3::rotation_x(0.2).then(&Affine3::translation(Vec3::new(3.0, 1.0, -2.0)));
        let mut rng = StdRng::seed_from_u64(42);
        let patient = scatter(&mut rng, 60);
        let atlas: Vec<Vec3> = patient
            .iter()
            .map(|&p| {
                truth.apply(p)
                    + Vec3::new(
                        rng.gen_range(-0.5..0.5),
                        rng.gen_range(-0.5..0.5),
                        rng.gen_range(-0.5..0.5),
                    )
            })
            .collect();
        let est = register_landmarks(&patient, &atlas).unwrap();
        // Judge by how well points map (the quantity that matters for
        // warping), not by coefficient-wise closeness: least squares
        // cannot beat the noise floor, so residuals should sit near it.
        let mean_residual: f64 =
            patient.iter().map(|&p| est.apply(p).distance(truth.apply(p))).sum::<f64>()
                / patient.len() as f64;
        assert!(mean_residual < 0.5, "mean residual {mean_residual}");
    }

    proptest! {
        #[test]
        fn registration_is_exact_on_consistent_data(seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let truth = Affine3::rotation_y(rng.gen_range(-1.0..1.0))
                .then(&Affine3::uniform_scaling(rng.gen_range(0.5..2.0)))
                .then(&Affine3::translation(Vec3::new(
                    rng.gen_range(-20.0..20.0),
                    rng.gen_range(-20.0..20.0),
                    rng.gen_range(-20.0..20.0),
                )));
            let patient = scatter(&mut rng, 10);
            let atlas: Vec<Vec3> = patient.iter().map(|&p| truth.apply(p)).collect();
            let est = register_landmarks(&patient, &atlas).unwrap();
            prop_assert!(est.max_abs_diff(&truth) < 1e-6);
        }
    }
}
