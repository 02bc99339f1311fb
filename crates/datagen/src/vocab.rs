//! Shared vocabulary pools used by the dataset generators.
//!
//! The lists are intentionally modest in size: the goal is realistic *value
//! distributions* (repeated categorical values, functional dependencies,
//! formatted strings), not realistic content.

/// Common first names.
pub const FIRST_NAMES: &[&str] = &[
    "James",
    "Mary",
    "Robert",
    "Patricia",
    "John",
    "Jennifer",
    "Michael",
    "Linda",
    "David",
    "Elizabeth",
    "William",
    "Barbara",
    "Richard",
    "Susan",
    "Joseph",
    "Jessica",
    "Thomas",
    "Sarah",
    "Charles",
    "Karen",
    "Christopher",
    "Lisa",
    "Daniel",
    "Nancy",
    "Matthew",
    "Betty",
    "Anthony",
    "Margaret",
    "Mark",
    "Sandra",
    "Donald",
    "Ashley",
    "Steven",
    "Kimberly",
    "Paul",
    "Emily",
    "Andrew",
    "Donna",
    "Joshua",
    "Michelle",
    "Wei",
    "Ling",
    "Carlos",
    "Sofia",
    "Ahmed",
    "Fatima",
    "Yuki",
    "Hana",
    "Olga",
    "Ivan",
];

/// Common last names.
pub const LAST_NAMES: &[&str] = &[
    "Smith",
    "Johnson",
    "Williams",
    "Brown",
    "Jones",
    "Garcia",
    "Miller",
    "Davis",
    "Rodriguez",
    "Martinez",
    "Hernandez",
    "Lopez",
    "Gonzalez",
    "Wilson",
    "Anderson",
    "Thomas",
    "Taylor",
    "Moore",
    "Jackson",
    "Martin",
    "Lee",
    "Perez",
    "Thompson",
    "White",
    "Harris",
    "Sanchez",
    "Clark",
    "Ramirez",
    "Lewis",
    "Robinson",
    "Walker",
    "Young",
    "Allen",
    "King",
    "Wright",
    "Scott",
    "Torres",
    "Nguyen",
    "Hill",
    "Flores",
];

/// US city names (paired index-wise with [`STATES_FOR_CITIES`]).
pub const CITIES: &[&str] = &[
    "Birmingham",
    "Phoenix",
    "Little Rock",
    "Los Angeles",
    "Denver",
    "Hartford",
    "Dover",
    "Jacksonville",
    "Atlanta",
    "Honolulu",
    "Boise",
    "Chicago",
    "Indianapolis",
    "Des Moines",
    "Wichita",
    "Louisville",
    "New Orleans",
    "Portland",
    "Baltimore",
    "Boston",
    "Detroit",
    "Minneapolis",
    "Jackson",
    "Kansas City",
    "Billings",
    "Omaha",
    "Las Vegas",
    "Manchester",
    "Newark",
    "Albuquerque",
    "New York",
    "Charlotte",
    "Fargo",
    "Columbus",
    "Oklahoma City",
    "Salem",
    "Philadelphia",
    "Providence",
    "Charleston",
    "Sioux Falls",
];

/// State codes for [`CITIES`] (same order).
pub const STATES_FOR_CITIES: &[&str] = &[
    "AL", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA", "HI", "ID", "IL", "IN", "IA", "KS", "KY",
    "LA", "ME", "MD", "MA", "MI", "MN", "MS", "MO", "MT", "NE", "NV", "NH", "NJ", "NM", "NY", "NC",
    "ND", "OH", "OK", "OR", "PA", "RI", "SC", "SD",
];

/// Countries (paired index-wise with [`REGIONS_FOR_COUNTRIES`] and
/// [`CAPITALS_FOR_COUNTRIES`]).
pub const COUNTRIES: &[&str] = &[
    "United States",
    "China",
    "Germany",
    "India",
    "Russia",
    "Brazil",
    "United Kingdom",
    "France",
    "Italy",
    "Canada",
    "Japan",
    "Australia",
    "Mexico",
    "South Korea",
    "Spain",
    "Indonesia",
    "Turkey",
    "Saudi Arabia",
    "Switzerland",
    "Nigeria",
    "Sweden",
    "Argentina",
    "Egypt",
    "South Africa",
];

/// World region per country (same order as [`COUNTRIES`]).
pub const REGIONS_FOR_COUNTRIES: &[&str] = &[
    "North America",
    "East Asia",
    "Europe",
    "South Asia",
    "Europe",
    "South America",
    "Europe",
    "Europe",
    "Europe",
    "North America",
    "East Asia",
    "Oceania",
    "North America",
    "East Asia",
    "Europe",
    "Southeast Asia",
    "Middle East",
    "Middle East",
    "Europe",
    "Africa",
    "Europe",
    "South America",
    "Africa",
    "Africa",
];

/// Capital city per country (same order as [`COUNTRIES`]).
pub const CAPITALS_FOR_COUNTRIES: &[&str] = &[
    "Washington",
    "Beijing",
    "Berlin",
    "New Delhi",
    "Moscow",
    "Brasilia",
    "London",
    "Paris",
    "Rome",
    "Ottawa",
    "Tokyo",
    "Canberra",
    "Mexico City",
    "Seoul",
    "Madrid",
    "Jakarta",
    "Ankara",
    "Riyadh",
    "Bern",
    "Abuja",
    "Stockholm",
    "Buenos Aires",
    "Cairo",
    "Pretoria",
];

/// Industry sectors (Billionaire).
pub const INDUSTRIES: &[&str] = &[
    "Technology",
    "Finance",
    "Retail",
    "Energy",
    "Healthcare",
    "Real Estate",
    "Manufacturing",
    "Media",
    "Telecom",
    "Fashion",
    "Logistics",
    "Food and Beverage",
    "Mining",
    "Automotive",
    "Pharmaceuticals",
    "Entertainment",
];

/// Hospital-quality conditions and their measure-code prefixes, mirroring the
/// Hospital benchmark (SCIP = surgical infection prevention, AMI = heart
/// attack, PN = pneumonia, HF = heart failure).
pub const CONDITIONS: &[(&str, &str)] = &[
    ("surgical infection prevention", "SCIP"),
    ("heart attack", "AMI"),
    ("pneumonia", "PN"),
    ("heart failure", "HF"),
];

/// Hospital measure name templates per condition prefix.
pub const MEASURE_NAMES: &[(&str, &str)] = &[
    (
        "SCIP",
        "prophylactic antibiotic received within one hour prior to surgical incision",
    ),
    (
        "SCIP",
        "surgery patients with recommended venous thromboembolism prophylaxis ordered",
    ),
    ("AMI", "heart attack patients given aspirin at arrival"),
    (
        "AMI",
        "heart attack patients given pci within 90 minutes of arrival",
    ),
    (
        "PN",
        "pneumonia patients given initial antibiotic within 6 hours after arrival",
    ),
    (
        "PN",
        "pneumonia patients assessed and given pneumococcal vaccination",
    ),
    ("HF", "heart failure patients given discharge instructions"),
    (
        "HF",
        "heart failure patients given an evaluation of left ventricular systolic function",
    ),
];

/// Hospital types and owners.
pub const HOSPITAL_TYPES: &[&str] = &[
    "acute care hospitals",
    "critical access hospitals",
    "childrens hospitals",
];

/// Hospital owner categories.
pub const HOSPITAL_OWNERS: &[&str] = &[
    "government - federal",
    "government - state",
    "government - local",
    "voluntary non-profit - private",
    "voluntary non-profit - church",
    "proprietary",
];

/// Airline codes used to build flight numbers.
pub const AIRLINES: &[&str] = &["AA", "UA", "DL", "WN", "B6", "AS", "NK", "F9", "HA", "G4"];

/// Flight data sources (the Flights benchmark aggregates several websites).
pub const FLIGHT_SOURCES: &[&str] = &[
    "aa",
    "flightview",
    "flightaware",
    "orbitz",
    "weather",
    "mytripandmore",
    "helloflight",
    "flightexplorer",
    "travelocity",
    "gofox",
];

/// Craft beer styles.
pub const BEER_STYLES: &[&str] = &[
    "American IPA",
    "American Pale Ale",
    "American Amber Ale",
    "American Blonde Ale",
    "American Double IPA",
    "American Porter",
    "American Stout",
    "Witbier",
    "Hefeweizen",
    "Saison",
    "Fruit Beer",
    "Kolsch",
    "Pilsner",
    "Oatmeal Stout",
    "Scotch Ale",
    "Cream Ale",
    "Brown Ale",
    "Belgian Tripel",
    "Märzen",
    "Vienna Lager",
];

/// Brewery name fragments (combined to form brewery names).
pub const BREWERY_WORDS: &[&str] = &[
    "Anchor",
    "Summit",
    "Cedar",
    "River",
    "Stone",
    "Iron",
    "Copper",
    "Golden",
    "Lakefront",
    "Highland",
    "Pioneer",
    "Prairie",
    "Canyon",
    "Harbor",
    "Timber",
    "Granite",
    "Redwood",
    "Bluegrass",
    "Falcon",
    "Juniper",
];

/// Words for composing beer names.
pub const BEER_WORDS: &[&str] = &[
    "Hazy", "Hoppy", "Golden", "Midnight", "Velvet", "Wild", "Lazy", "Roaring", "Silent",
    "Electric", "Rustic", "Smoky", "Frosty", "Blazing", "Mellow", "Crooked", "Noble", "Lucky",
    "Drifting", "Thunder",
];

/// Second words for beer names.
pub const BEER_NOUNS: &[&str] = &[
    "Trail", "Badger", "Sunset", "Harvest", "Otter", "Summit", "Lantern", "Anvil", "Compass",
    "Meadow", "Falcon", "Canyon", "Ember", "Harbor", "Willow", "Breaker", "Pines", "Raven",
    "Current", "Hollow",
];

/// Academic journal names (Rayyan).
pub const JOURNALS: &[&str] = &[
    "Journal of Clinical Epidemiology",
    "The Lancet",
    "BMJ Open",
    "PLOS ONE",
    "Annals of Internal Medicine",
    "Cochrane Database of Systematic Reviews",
    "Journal of the American Medical Association",
    "New England Journal of Medicine",
    "Systematic Reviews",
    "Journal of Epidemiology and Community Health",
    "International Journal of Epidemiology",
    "Trials",
    "BMC Public Health",
    "American Journal of Public Health",
    "Health Technology Assessment",
];

/// Languages used in bibliographic records.
pub const LANGUAGES: &[&str] = &["eng", "fre", "ger", "spa", "chi", "por", "ita", "rus"];

/// Research topic words for composing article titles.
pub const TOPIC_WORDS: &[&str] = &[
    "randomized",
    "controlled",
    "trial",
    "cohort",
    "systematic",
    "review",
    "meta-analysis",
    "intervention",
    "outcomes",
    "screening",
    "prevalence",
    "risk",
    "factors",
    "treatment",
    "effectiveness",
    "hypertension",
    "diabetes",
    "cancer",
    "vaccination",
    "rehabilitation",
    "mortality",
    "quality",
    "of",
    "life",
    "adolescents",
    "elderly",
    "primary",
    "care",
];

/// Movie genres.
pub const GENRES: &[&str] = &[
    "Drama",
    "Comedy",
    "Action",
    "Thriller",
    "Horror",
    "Romance",
    "Documentary",
    "Animation",
    "Crime",
    "Adventure",
    "Science Fiction",
    "Fantasy",
    "Mystery",
    "Western",
    "Musical",
];

/// Movie title words.
pub const MOVIE_WORDS: &[&str] = &[
    "Midnight",
    "Shadow",
    "Return",
    "Last",
    "Silent",
    "Broken",
    "Golden",
    "Lost",
    "Crimson",
    "Winter",
    "Forgotten",
    "Distant",
    "Burning",
    "Paper",
    "Iron",
    "Endless",
    "Savage",
    "Gentle",
    "Stolen",
    "Electric",
];

/// Movie title nouns.
pub const MOVIE_NOUNS: &[&str] = &[
    "Horizon", "Garden", "Empire", "Promise", "Echo", "River", "Letters", "Kingdom", "Voyage",
    "Symphony", "Harvest", "Mirror", "Station", "Parade", "Fortress", "Lullaby", "Detour",
    "Carnival", "Outpost", "Reunion",
];

/// MPAA-style content ratings.
pub const RATINGS: &[&str] = &["G", "PG", "PG-13", "R", "NC-17", "NOT RATED"];

/// Street name fragments for addresses.
pub const STREETS: &[&str] = &[
    "Main St",
    "Oak Ave",
    "Maple Dr",
    "Cedar Ln",
    "Park Blvd",
    "Washington St",
    "Lake Rd",
    "Hill St",
    "River Rd",
    "Sunset Blvd",
    "2nd Ave",
    "3rd St",
    "Highland Ave",
    "Church St",
    "Elm St",
    "Walnut St",
];

/// Marital statuses (Tax).
pub const MARITAL_STATUSES: &[&str] = &["S", "M"];

/// Deterministically picks an element of `pool` using an index.
pub fn pick<'a>(pool: &'a [&'a str], idx: usize) -> &'a str {
    pool[idx % pool.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_vocab_lists_have_matching_lengths() {
        assert_eq!(CITIES.len(), STATES_FOR_CITIES.len());
        assert_eq!(COUNTRIES.len(), REGIONS_FOR_COUNTRIES.len());
        assert_eq!(COUNTRIES.len(), CAPITALS_FOR_COUNTRIES.len());
    }

    #[test]
    fn pools_are_non_trivial() {
        assert!(FIRST_NAMES.len() >= 40);
        assert!(LAST_NAMES.len() >= 30);
        assert!(JOURNALS.len() >= 10);
        assert!(MEASURE_NAMES.len() >= 8);
    }

    #[test]
    fn pick_wraps_around() {
        assert_eq!(pick(&["a", "b", "c"], 0), "a");
        assert_eq!(pick(&["a", "b", "c"], 4), "b");
    }
}
