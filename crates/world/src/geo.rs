//! Geography: continents, coordinates, and propagation delay.

/// Continents, numbered for use as compact analysis labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Continent {
    /// Africa.
    Africa = 0,
    /// Asia.
    Asia = 1,
    /// Europe.
    Europe = 2,
    /// North America.
    NorthAmerica = 3,
    /// Oceania.
    Oceania = 4,
    /// South America.
    SouthAmerica = 5,
}

impl Continent {
    /// All continents in label order.
    pub fn all() -> [Continent; 6] {
        [
            Continent::Africa,
            Continent::Asia,
            Continent::Europe,
            Continent::NorthAmerica,
            Continent::Oceania,
            Continent::SouthAmerica,
        ]
    }

    /// Two-letter code as used in the paper's tables.
    pub fn code(&self) -> &'static str {
        match self {
            Continent::Africa => "AF",
            Continent::Asia => "AS",
            Continent::Europe => "EU",
            Continent::NorthAmerica => "NA",
            Continent::Oceania => "OC",
            Continent::SouthAmerica => "SA",
        }
    }

    /// From the numeric label used in analysis records.
    pub fn from_u8(v: u8) -> Option<Continent> {
        Continent::all().into_iter().find(|c| *c as u8 == v)
    }
}

/// A point on the globe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
}

/// Great-circle distance (haversine), kilometres.
pub(crate) fn distance_km(a: GeoPoint, b: GeoPoint) -> f64 {
    const R: f64 = 6_371.0;
    let (la1, la2) = (a.lat.to_radians(), b.lat.to_radians());
    let dla = (b.lat - a.lat).to_radians();
    let dlo = (b.lon - a.lon).to_radians();
    let h = (dla / 2.0).sin().powi(2) + la1.cos() * la2.cos() * (dlo / 2.0).sin().powi(2);
    2.0 * R * h.sqrt().asin()
}

/// Idealized propagation RTT between two points, milliseconds.
///
/// Light in fibre travels ≈200 km/ms; real paths are not great circles,
/// so a route-inflation factor (≈1.6 for typical terrestrial paths)
/// applies, plus a small per-path constant for equipment.
pub fn propagation_rtt_ms(a: GeoPoint, b: GeoPoint) -> f64 {
    const FIBRE_KM_PER_MS: f64 = 200.0;
    const INFLATION: f64 = 1.6;
    const EQUIPMENT_MS: f64 = 0.8;
    2.0 * distance_km(a, b) * INFLATION / FIBRE_KM_PER_MS + EQUIPMENT_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    const LONDON: GeoPoint = GeoPoint { lat: 51.5, lon: -0.1 };
    const NYC: GeoPoint = GeoPoint { lat: 40.7, lon: -74.0 };
    const SYDNEY: GeoPoint = GeoPoint { lat: -33.9, lon: 151.2 };

    #[test]
    fn distance_london_nyc() {
        let d = distance_km(LONDON, NYC);
        assert!((d - 5570.0).abs() < 100.0, "d = {d}");
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        assert!((distance_km(LONDON, NYC) - distance_km(NYC, LONDON)).abs() < 1e-9);
        assert!(distance_km(SYDNEY, SYDNEY) < 1e-9);
    }

    #[test]
    fn transatlantic_rtt_is_realistic() {
        let rtt = propagation_rtt_ms(LONDON, NYC);
        // Real-world London–NYC RTT is ~70–80 ms.
        assert!(rtt > 60.0 && rtt < 100.0, "rtt = {rtt}");
    }

    #[test]
    fn short_hop_rtt_is_small() {
        let paris = GeoPoint { lat: 48.9, lon: 2.4 };
        let rtt = propagation_rtt_ms(LONDON, paris);
        assert!(rtt > 2.0 && rtt < 12.0, "rtt = {rtt}");
    }

    #[test]
    fn continent_codes_round_trip() {
        for c in Continent::all() {
            assert_eq!(Continent::from_u8(c as u8), Some(c));
        }
        assert_eq!(Continent::from_u8(9), None);
        assert_eq!(Continent::Europe.code(), "EU");
    }
}
