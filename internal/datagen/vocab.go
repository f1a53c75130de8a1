package datagen

// Word lists used by the topic generators. All generation is seeded, so
// every benchmark instance is exactly reproducible.

var firstNames = []string{
	"James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael",
	"Linda", "David", "Elizabeth", "William", "Barbara", "Richard", "Susan",
	"Joseph", "Jessica", "Thomas", "Sarah", "Charles", "Karen", "Christopher",
	"Lisa", "Daniel", "Nancy", "Matthew", "Betty", "Anthony", "Margaret",
	"Mark", "Sandra", "Donald", "Ashley", "Steven", "Kimberly", "Paul",
	"Emily", "Andrew", "Donna", "Joshua", "Michelle", "Kenneth", "Carol",
	"Kevin", "Amanda", "Brian", "Dorothy", "George", "Melissa", "Timothy",
	"Deborah", "Ronald", "Stephanie", "Edward", "Rebecca", "Jason", "Sharon",
	"Jeffrey", "Laura", "Ryan", "Cynthia", "Jacob", "Kathleen", "Gary",
	"Amy", "Nicholas", "Angela", "Eric", "Shirley", "Jonathan", "Anna",
	"Stephen", "Brenda", "Larry", "Pamela", "Justin", "Emma", "Scott",
	"Nicole", "Brandon", "Helen", "Benjamin", "Samantha", "Samuel",
	"Katherine", "Gregory", "Christine", "Alexander", "Debra", "Patrick",
	"Rachel", "Frank", "Carolyn", "Raymond", "Janet", "Jack", "Maria",
	"Dennis", "Olivia", "Jerry", "Heather",
}

var lastNames = []string{
	"Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller",
	"Davis", "Rodriguez", "Martinez", "Hernandez", "Lopez", "Gonzalez",
	"Wilson", "Anderson", "Thomas", "Taylor", "Moore", "Jackson", "Martin",
	"Lee", "Perez", "Thompson", "White", "Harris", "Sanchez", "Clark",
	"Ramirez", "Lewis", "Robinson", "Walker", "Young", "Allen", "King",
	"Wright", "Scott", "Torres", "Nguyen", "Hill", "Flores", "Green",
	"Adams", "Nelson", "Baker", "Hall", "Rivera", "Campbell", "Mitchell",
	"Carter", "Roberts", "Gomez", "Phillips", "Evans", "Turner", "Diaz",
	"Parker", "Cruz", "Edwards", "Collins", "Reyes", "Stewart", "Morris",
	"Morales", "Murphy", "Cook", "Rogers", "Gutierrez", "Ortiz", "Morgan",
	"Cooper", "Peterson", "Bailey", "Reed", "Kelly", "Howard", "Ramos",
	"Kim", "Cox", "Ward", "Richardson", "Watson", "Brooks", "Chavez",
	"Wood", "James", "Bennett", "Gray", "Mendoza", "Ruiz", "Hughes",
	"Price", "Alvarez", "Castillo", "Sanders", "Patel", "Myers", "Long",
	"Ross", "Foster", "Jimenez",
}

var cityNames = []string{
	"Springfield", "Riverton", "Fairview", "Kingston", "Georgetown",
	"Salem", "Madison", "Arlington", "Ashland", "Burlington", "Clayton",
	"Clinton", "Dayton", "Dover", "Franklin", "Greenville", "Hudson",
	"Jackson", "Lebanon", "Lexington", "Manchester", "Marion", "Milford",
	"Milton", "Newport", "Oakland", "Oxford", "Princeton", "Richmond",
	"Riverside", "Rochester", "Salisbury", "Troy", "Vernon", "Winchester",
	"Auburn", "Bristol", "Camden", "Chester", "Columbia", "Concord",
	"Danville", "Easton", "Florence", "Geneva", "Hamilton", "Hanover",
	"Lakewood", "Lancaster", "Monroe", "Norfolk", "Plymouth", "Portsmouth",
	"Quincy", "Raleigh", "Sheffield", "Somerset", "Stratford", "Waverly",
	"Weston", "Windsor", "Yorktown", "Brookfield", "Cedarville", "Elmwood",
	"Glenwood", "Harmony", "Ironwood", "Juniper", "Kenwood", "Larkspur",
	"Maplewood", "Northfield", "Oakdale", "Pinehurst", "Quailwood",
	"Redwood", "Silverton", "Thornton", "Underwood", "Valewood", "Westfield",
	"Alderton", "Birchwood", "Crestline", "Dunmore", "Eastport", "Fallbrook",
	"Graniteville", "Highmore", "Inverness", "Jasper", "Kelton", "Lynnfield",
	"Midvale", "Norwood", "Overbrook", "Pemberton", "Quarryville", "Rosemont",
	"Seabrook", "Tilton",
}

var adjectives = []string{
	"Silent", "Golden", "Crimson", "Electric", "Midnight", "Broken",
	"Wild", "Gentle", "Frozen", "Burning", "Distant", "Hidden", "Lonely",
	"Sacred", "Velvet", "Wicked", "Ancient", "Bitter", "Crystal", "Daring",
	"Endless", "Fading", "Gilded", "Hollow", "Iron", "Jagged", "Kindred",
	"Lunar", "Mystic", "Northern", "Obsidian", "Painted", "Quiet", "Restless",
	"Scarlet", "Twisted", "Unbroken", "Violet", "Wandering", "Young",
	"Amber", "Blazing", "Cobalt", "Dusty", "Emerald", "Fearless", "Grim",
	"Howling", "Ivory", "Jade",
}

var nouns = []string{
	"River", "Mountain", "Shadow", "Dream", "Fire", "Ocean", "Star",
	"Thunder", "Garden", "Mirror", "Harbor", "Forest", "Canyon", "Meadow",
	"Tempest", "Horizon", "Echo", "Ember", "Falcon", "Glacier", "Harvest",
	"Island", "Journey", "Kingdom", "Lantern", "Moon", "Nightfall", "Orchid",
	"Prairie", "Quarry", "Raven", "Storm", "Tide", "Valley", "Willow",
	"Aurora", "Beacon", "Cascade", "Dawn", "Eclipse", "Fountain", "Grove",
	"Haven", "Inferno", "Jungle", "Knoll", "Lagoon", "Mesa", "Nebula",
	"Oasis",
}

var companyRoots = []string{
	"Acme", "Vertex", "Nimbus", "Quantum", "Stellar", "Pinnacle", "Atlas",
	"Zenith", "Orion", "Apex", "Cobalt", "Delta", "Equinox", "Fusion",
	"Gradient", "Halcyon", "Ignite", "Juniper", "Keystone", "Lattice",
	"Meridian", "Nexus", "Octave", "Paragon", "Quasar", "Radian", "Summit",
	"Tessera", "Umbra", "Vanguard", "Wavelength", "Xenon", "Yield", "Zephyr",
	"Anchor", "Bolt", "Cinder", "Drift", "Ember", "Flux", "Granite", "Helix",
	"Inertia", "Jolt", "Kindle", "Lumen", "Matrix", "Nova", "Onyx", "Pulse",
}

var companySuffixes = []string{
	"Systems", "Technologies", "Industries", "Solutions", "Labs", "Group",
	"Partners", "Dynamics", "Networks", "Analytics", "Logistics", "Energy",
	"Robotics", "Materials", "Capital", "Holdings", "Media", "Software",
	"Biotech", "Aerospace",
}

var sportsTeamSuffixes = []string{
	"Tigers", "Eagles", "Sharks", "Wolves", "Hawks", "Bears", "Lions",
	"Panthers", "Falcons", "Raptors", "Stallions", "Comets", "Rockets",
	"Storm", "Thunder", "Blaze", "Crusaders", "Pioneers", "Mariners",
	"Rangers",
}

var animalNames = []string{
	"African Elephant", "Bengal Tiger", "Snow Leopard", "Red Panda",
	"Giant Panda", "Polar Bear", "Grizzly Bear", "Gray Wolf", "Arctic Fox",
	"Bald Eagle", "Golden Eagle", "Peregrine Falcon", "Snowy Owl",
	"Emperor Penguin", "King Cobra", "Komodo Dragon", "Green Sea Turtle",
	"Blue Whale", "Humpback Whale", "Bottlenose Dolphin", "Great White Shark",
	"Hammerhead Shark", "Giant Squid", "Monarch Butterfly", "Honey Bee",
	"Red Kangaroo", "Koala", "Platypus", "Tasmanian Devil", "Ring-tailed Lemur",
	"Mountain Gorilla", "Chimpanzee", "Orangutan", "Howler Monkey",
	"Giant Anteater", "Nine-banded Armadillo", "American Bison", "Moose",
	"Caribou", "Bighorn Sheep", "Mountain Goat", "Snow Monkey", "Sloth Bear",
	"Spotted Hyena", "Cheetah", "Jaguar", "Ocelot", "Lynx", "Serval",
	"Caracal", "Meerkat", "Capybara", "Beaver", "River Otter", "Sea Otter",
	"Harbor Seal", "Walrus", "Manatee", "Narwhal", "Beluga Whale",
}

var foodNames = []string{
	"Margherita Pizza", "Caesar Salad", "Chicken Tikka Masala", "Beef Stroganoff",
	"Pad Thai", "Sushi Roll", "Fish and Chips", "Shepherd's Pie",
	"Clam Chowder", "Lobster Bisque", "French Onion Soup", "Eggs Benedict",
	"Belgian Waffle", "Blueberry Pancake", "Chocolate Brownie", "Apple Pie",
	"Banana Bread", "Carrot Cake", "Cheesecake", "Tiramisu", "Creme Brulee",
	"Beef Wellington", "Chicken Parmesan", "Spaghetti Carbonara",
	"Fettuccine Alfredo", "Lasagna Bolognese", "Mushroom Risotto",
	"Vegetable Stir Fry", "Kung Pao Chicken", "Sweet and Sour Pork",
	"Peking Duck", "Dim Sum Platter", "Falafel Wrap", "Hummus Plate",
	"Greek Gyro", "Chicken Shawarma", "Lamb Kebab", "Beef Taco",
	"Chicken Quesadilla", "Pulled Pork Sandwich", "Philly Cheesesteak",
	"Buffalo Wings", "Mac and Cheese", "Cornbread Muffin", "Potato Gratin",
	"Ratatouille", "Beef Bourguignon", "Coq au Vin", "Paella Valenciana",
	"Gazpacho", "Miso Soup", "Tom Yum Soup", "Pho Noodle Soup", "Ramen Bowl",
	"Bibimbap", "Kimchi Fried Rice", "Butter Chicken", "Palak Paneer",
	"Dal Makhani", "Tandoori Chicken",
}

var carMakers = []string{
	"Aurora Motors", "Borealis Auto", "Cascade Motors", "Drayton",
	"Everline", "Fenwick Motors", "Gyrfalcon", "Hillcrest Auto",
	"Ironside Motors", "Jetstream", "Kestrel Automotive", "Lodestar",
	"Montclair Motors", "Nordwind", "Oakline Auto", "Pinnacle Motors",
}

var carModels = []string{
	"Meridian", "Voyager", "Solstice", "Cavalier", "Summit", "Traverse",
	"Odyssey", "Phantom", "Raptor", "Sentinel", "Tundra", "Valor",
	"Wanderer", "Zenith", "Apex", "Breeze", "Comet", "Drift", "Element",
	"Flare",
}

var airportCities = []string{
	"Ashford", "Braxton", "Caldwell", "Dunbar", "Eastvale", "Fernwood",
	"Garfield", "Hartwell", "Ingleside", "Jennings", "Kendall", "Lanford",
	"Merritt", "Newhall", "Oakridge", "Paxton", "Quentin", "Redfield",
	"Stanton", "Thatcher", "Upland", "Vickers", "Wharton", "Yardley",
	"Zellwood", "Ames", "Barton", "Corbin", "Denton", "Ellison",
}

var fields = []string{
	"Technology", "Medicine", "Engineering", "Science", "Arts", "Commerce",
	"Law", "Agriculture", "Mining", "Design", "Economics", "Philosophy",
	"Astronomy", "Chemistry", "Physics", "Biology", "Geology", "Linguistics",
	"Mathematics", "Architecture",
}

var officialTitles = []string{
	"Governor", "Senator", "Mayor", "Secretary of State", "Attorney General",
	"Treasurer", "Auditor", "Commissioner", "Representative", "Comptroller",
	"Lieutenant Governor", "Chief Justice", "Superintendent", "Sheriff",
	"Clerk", "Assessor", "Surveyor", "Coroner", "Recorder", "Registrar",
}

var genres = []string{
	"Drama", "Comedy", "Action", "Thriller", "Romance", "Documentary",
	"Horror", "Sci-Fi", "Fantasy", "Mystery", "Crime", "Adventure",
	"Animation", "Biography", "History", "Musical", "Western", "War",
	"Sport", "Family",
}

var professions = []string{
	"actor", "director", "producer", "writer", "composer", "editor",
	"cinematographer", "stunt", "costume", "makeup",
}

var productCategories = []string{
	"Wireless Headphones", "Mechanical Keyboard", "Ultrawide Monitor",
	"Standing Desk", "Ergonomic Chair", "Smart Thermostat", "Robot Vacuum",
	"Air Purifier", "Espresso Machine", "Blender", "Toaster Oven",
	"Rice Cooker", "Slow Cooker", "Stand Mixer", "Food Processor",
	"Electric Kettle", "Water Filter", "Desk Lamp", "Bookshelf Speaker",
	"Soundbar", "Fitness Tracker", "Smart Watch", "Tablet Stand",
	"Laptop Sleeve", "Portable Charger", "Solar Panel", "Dash Camera",
	"Bike Helmet", "Camping Tent", "Sleeping Bag", "Hiking Backpack",
	"Trail Shoes", "Yoga Mat", "Resistance Bands", "Dumbbell Set",
	"Rowing Machine", "Tennis Racket", "Golf Clubs", "Basketball",
	"Soccer Ball",
}
