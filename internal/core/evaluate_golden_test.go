package core

import (
	"fmt"
	"math"
	"testing"

	"yap/internal/layout"
	"yap/internal/randx"
	"yap/internal/units"
)

// seededGoldenParams returns the i-th seeded parameter set of the
// evaluate golden table: a nil-layout point drawn across pitch, die area,
// defect density and clustering, warpage, recess and σ₁.
func seededGoldenParams(i int) Params {
	src := randx.NewSource(uint64(7000 + i))
	p := Baseline().
		WithPitch(src.Uniform(1, 10) * units.Micrometer).
		WithDieArea(src.Uniform(9, 150) * units.SquareMillimeter).
		WithDefectDensity(src.Uniform(0.005, 0.5) * units.PerSquareCentimeter)
	p.Warpage = src.Uniform(2, 50) * units.Micrometer
	p.RecessTop = src.Uniform(6, 11) * units.Nanometer
	p.RecessBottom = src.Uniform(6, 11) * units.Nanometer
	p.RandomMisalignmentSigma = src.Uniform(0, 25) * units.Nanometer
	p.RadialDefectClustering = src.Uniform(0, 2)
	return p
}

// goldenTwoPitch is a fine-pitch core block beside a coarse-pitch io
// column on the baseline die.
func goldenTwoPitch() Params {
	p := Baseline()
	l := layout.Layout{Regions: []layout.Region{
		{Name: "core", X0: -5e-3, Y0: -5e-3, X1: 2e-3, Y1: 5e-3},
		{Name: "io", X0: 2e-3, Y0: -5e-3, X1: 5e-3, Y1: 5e-3,
			Pitch: 12 * units.Micrometer, TopPadDiameter: 4 * units.Micrometer,
			BottomPadDiameter: 6 * units.Micrometer},
	}}
	p.PadLayout = &l
	return p
}

// goldenQuadrants splits a small coarse-pitch die into four explicit
// regions.
func goldenQuadrants() Params {
	p := Baseline().WithPitch(50 * units.Micrometer)
	p.DieWidth, p.DieHeight = 2*units.Millimeter, 2*units.Millimeter
	p.WaferDiameter = 20 * units.Millimeter
	h := p.DieWidth / 2
	l := layout.Layout{Regions: []layout.Region{
		{Name: "q1", X0: -h, Y0: -h, X1: 0, Y1: 0},
		{Name: "q2", X0: 0, Y0: -h, X1: h, Y1: 0},
		{Name: "q3", X0: -h, Y0: 0, X1: 0, Y1: h},
		{Name: "q4", X0: 0, Y0: 0, X1: h, Y1: h},
	}}
	p.PadLayout = &l
	return p
}

// goldenSeeded is the number of seeded nil-layout rows of evaluateGolden.
const goldenSeeded = 64

// goldenCase names the parameter set of row i of evaluateGolden: the
// seeded nil-layout sets first, then the two layouts.
func goldenCase(i int) (string, Params) {
	switch {
	case i < goldenSeeded:
		return fmt.Sprintf("seeded%02d", i), seededGoldenParams(i)
	case i == goldenSeeded:
		return "two-pitch", goldenTwoPitch()
	default:
		return "quadrants", goldenQuadrants()
	}
}

// breakdownBits returns the bit patterns of b's four fields in
// Overlay, Recess, Defect, Total order.
func breakdownBits(b Breakdown) [4]uint64 {
	return [4]uint64{
		math.Float64bits(b.Overlay), math.Float64bits(b.Recess),
		math.Float64bits(b.Defect), math.Float64bits(b.Total),
	}
}

// evaluateGolden holds the Breakdown bit patterns of every goldenCase
// row, captured from the analytic model while the nil-layout and
// explicit-layout evaluations were still separate code paths.
var evaluateGolden = [][2][4]uint64{
	{{0x3ff0000000000000, 0x3feffffffffd5866, 0x3fed65b9dd362867, 0x3fed65b9dd33b813}, {0x3ff0000000000000, 0x3feffffffffd5866, 0x3fef02c597536c79, 0x3fef02c59750d9e1}}, // seeded00
	{{0x3ff0000000000000, 0x3ff0000000000000, 0x3feb5484b4b0cc59, 0x3feb5484b4b0cc59}, {0x3ff0000000000000, 0x3ff0000000000000, 0x3fedb6abc220039e, 0x3fedb6abc220039e}}, // seeded01
	{{0x3ff0000000000000, 0x3fefffffffffbfda, 0x3fed0b6385f6abbd, 0x3fed0b6385f67184}, {0x3ff0000000000000, 0x3fefffffffffbfda, 0x3fee87355bbf1e16, 0x3fee87355bbee0e3}}, // seeded02
	{{0x3fc8e54b9ed43927, 0x3edefae7524299da, 0x3fed75b855e5016b, 0x3eb63060c6ef6e03}, {0x3d7bf9bf5fd7fe09, 0x3edefae7524299da, 0x3feea23bc5b3b2fe, 0x3c69ed745dbcf47b}}, // seeded03
	{{0x3ff0000000000000, 0x3feffaf6811c9d8e, 0x3fed3b7988123d28, 0x3fed36df9070e5ad}, {0x3ff0000000000000, 0x3feffaf6811c9d8e, 0x3feedd613e928e3a, 0x3feed8857eba6d76}}, // seeded04
	{{0x3ff0000000000000, 0x3fefffffffca3153, 0x3fe6acfcc3fc07a7, 0x3fe6acfcc3d5e6b0}, {0x3ff0000000000000, 0x3fefffffffca3153, 0x3fea9cb88578bdf1, 0x3fea9cb8854bfe7f}}, // seeded05
	{{0x3ff0000000000000, 0x3ff0000000000000, 0x3fe9629fe60fc042, 0x3fe9629fe60fc042}, {0x3ff0000000000000, 0x3ff0000000000000, 0x3feda7a051915b22, 0x3feda7a051915b22}}, // seeded06
	{{0x3ff0000000000000, 0x3fefe86718f54a46, 0x3fdcca57d94cd727, 0x3fdcb51cd92912db}, {0x3ff0000000000000, 0x3fefe86718f54a46, 0x3fe50f0eb2e41cb1, 0x3fe4ff8740c1f899}}, // seeded07
	{{0x3ff0000000000000, 0x3feff8ec03665d54, 0x3fe829eefc39a637, 0x3fe82496b84e5681}, {0x3ff0000000000000, 0x3feff8ec03665d54, 0x3feb31dbc58c8d9e, 0x3feb2bd7e133a63f}}, // seeded08
	{{0x3ff0000000000000, 0x3fefffffff984fde, 0x3fe8d8ef4897b8b5, 0x3fe8d8ef484735af}, {0x3ff0000000000000, 0x3fefffffff984fde, 0x3fed3b67ce728700, 0x3fed3b67ce13cee4}}, // seeded09
	{{0x3ff0000000000000, 0x3feffffffffffffe, 0x3fe7482c937ab9e3, 0x3fe7482c937ab9e2}, {0x3ff0000000000000, 0x3feffffffffffffe, 0x3fead114f5699efe, 0x3fead114f5699efc}}, // seeded10
	{{0x3ff0000000000000, 0x3fefffffb684e2bd, 0x3fe47a470d80f916, 0x3fe47a46de7b3e44}, {0x3ff0000000000000, 0x3fefffffb684e2bd, 0x3fe9c6f9aac1b3b9, 0x3fe9c6f96f909dca}}, // seeded11
	{{0x3ff0000000000000, 0x3feffffffe94b782, 0x3fe8ba6ea6b896be, 0x3fe8ba6ea59fdbe2}, {0x3ff0000000000000, 0x3feffffffe94b782, 0x3fec0d212079d933, 0x3fec0d211f3b64b7}}, // seeded12
	{{0x3ff0000000000000, 0x3feffffffbbf6a28, 0x3fed7657cbfaf554, 0x3fed7657c810b3b5}, {0x3feffdbb463b40e4, 0x3feffffffbbf6a28, 0x3fef07a34208eafb, 0x3fef05701f57a403}}, // seeded13
	{{0x3ff0000000000000, 0x3fefffffff7fe8a0, 0x3fe8e2cf0e8d44a6, 0x3fe8e2cf0e29a73c}, {0x3ff0000000000000, 0x3fefffffff7fe8a0, 0x3fec743106f53846, 0x3fec7431068352b9}}, // seeded14
	{{0x3ff0000000000000, 0x3fefed401d94db2c, 0x3fed27bd56e31603, 0x3fed16a828e5d007}, {0x3ff0000000000000, 0x3fefed401d94db2c, 0x3feeed89d222cec0, 0x3feedb6abff8d1b3}}, // seeded15
	{{0x3ff0000000000000, 0x3feeb4b6a6a9d6aa, 0x3fe98e0542e09d01, 0x3fe88575a9210bc6}, {0x3ff0000000000000, 0x3feeb4b6a6a9d6aa, 0x3fed9900537e5ce5, 0x3fec6695e074c107}}, // seeded16
	{{0x3fef9839a1a4fe8a, 0x3fefffcaf704f699, 0x3fe6e15d34f9a6ee, 0x3fe697048a5acd37}, {0x3fd6b0dd120a2bec, 0x3fefffcaf704f699, 0x3feb5d78b1c90930, 0x3fd36761f6213d05}}, // seeded17
	{{0x3ff0000000000000, 0x3fed5cb8e0e4e2f9, 0x3fee5d4d2c1633ff, 0x3febdc899bb4e8ce}, {0x3ff0000000000000, 0x3fed5cb8e0e4e2f9, 0x3fef51d7c3ecb945, 0x3fecbcebc89762af}}, // seeded18
	{{0x3fe34047c948a004, 0x3feffffff5e29465, 0x3fecb558cb779624, 0x3fe14557cbe1a4bb}, {0x3f99cca4c1e98898, 0x3feffffff5e29465, 0x3fee4cd632960950, 0x3f986dcd26b53dec}}, // seeded19
	{{0x3ff0000000000000, 0x3fefffffff59590d, 0x3fecd8598c47b71b, 0x3fecd8598bb17e4d}, {0x3ff0000000000000, 0x3fefffffff59590d, 0x3fee2361f0dbcf5f, 0x3fee2361f03eda97}}, // seeded20
	{{0x3ff0000000000000, 0x3fefffffff314139, 0x3feb9324eb5be955, 0x3feb9324eaa9c1b2}, {0x3ff0000000000000, 0x3fefffffff314139, 0x3fedbb71f9a90593, 0x3fedbb71f8e8eda3}}, // seeded21
	{{0x3ff0000000000000, 0x3feffffff47903fd, 0x3fea2c53de98b1eb, 0x3fea2c53d52b0d58}, {0x3ff0000000000000, 0x3feffffff47903fd, 0x3fecffcfd52d8bc8, 0x3fecffcfcabb48bf}}, // seeded22
	{{0x3ff0000000000000, 0x3fefffffffffffd0, 0x3fe365008e001e3a, 0x3fe365008e001e1d}, {0x3ff0000000000000, 0x3fefffffffffffd0, 0x3fea0baa293e2d5a, 0x3fea0baa293e2d33}}, // seeded23
	{{0x3ff0000000000000, 0x3feffffffffffff6, 0x3fe825f469851047, 0x3fe825f46985103f}, {0x3ff0000000000000, 0x3feffffffffffff6, 0x3fec07ed394107d5, 0x3fec07ed394107cc}}, // seeded24
	{{0x3ff0000000000000, 0x3fefffff927222ff, 0x3feb6036d928655b, 0x3feb60367b6f4d84}, {0x3ff0000000000000, 0x3fefffff927222ff, 0x3fedc4d79cddc0f0, 0x3fedc4d736f34993}}, // seeded25
	{{0x3fd2b100942128ad, 0x3fefffffffffffec, 0x3febd9e6b9b75921, 0x3fd0449f8d970775}, {0x3da5df72320fc7ee, 0x3fefffffffffffec, 0x3feda978d7f87fff, 0x3da446562a020ea8}}, // seeded26
	{{0x3ff0000000000000, 0x3ff0000000000000, 0x3fe3940afa4decd3, 0x3fe3940afa4decd3}, {0x3ff0000000000000, 0x3ff0000000000000, 0x3fe9f58efe4c18a5, 0x3fe9f58efe4c18a5}}, // seeded27
	{{0x3ff0000000000000, 0x3fefff9d65f0ed5a, 0x3feb68e42d0ff058, 0x3feb688fb7df731a}, {0x3ff0000000000000, 0x3fefff9d65f0ed5a, 0x3fed75cff7d156d8, 0x3fed7575312f96aa}}, // seeded28
	{{0x3ff0000000000000, 0x3feffffffffff5a8, 0x3fe87668fdd0f439, 0x3fe87668fdd0ec51}, {0x3ff0000000000000, 0x3feffffffffff5a8, 0x3feb9d7f1a6b84ee, 0x3feb9d7f1a6b7c01}}, // seeded29
	{{0x3ff0000000000000, 0x3fefffffffffdcd4, 0x3fdf8d5d147928fa, 0x3fdf8d5d1479064c}, {0x3ff0000000000000, 0x3fefffffffffdcd4, 0x3fe64da09014753d, 0x3fe64da090145cb9}}, // seeded30
	{{0x3ff0000000000000, 0x3feffa2f4b2eddcf, 0x3fe83deb1a3df8eb, 0x3fe83983520efbe7}, {0x3ff0000000000000, 0x3feffa2f4b2eddcf, 0x3feb71d36c15e59c, 0x3feb6cd6a41b21a2}}, // seeded31
	{{0x3ff0000000000000, 0x3feffffffffffffe, 0x3fe248e7d6416d22, 0x3fe248e7d6416d21}, {0x3ff0000000000000, 0x3feffffffffffffe, 0x3fe7caeffb5cb01b, 0x3fe7caeffb5cb01a}}, // seeded32
	{{0x3fe7d5e99f5d0cd9, 0x3fefd180363846c4, 0x3fd5381c2210dc00, 0x3fcf6e6a3fd4c043}, {0x3fa4b6a88bd9d6e3, 0x3fefd180363846c4, 0x3fe1901c91ed277a, 0x3f969b9a064c8ab4}}, // seeded33
	{{0x3ff0000000000000, 0x3feffffffe5d8e1c, 0x3fda2014c7025b07, 0x3fda2014c5acbafc}, {0x3fefffd8052452fb, 0x3feffffffe5d8e1c, 0x3fe3ae37d36bbc60, 0x3fe3ae1f3bce2b57}}, // seeded34
	{{0x3ff0000000000000, 0x3feffffffffff985, 0x3fe1ff91efea72e8, 0x3fe1ff91efea6f43}, {0x3ff0000000000000, 0x3feffffffffff985, 0x3fe82a4d583f4f7e, 0x3fe82a4d583f4a99}}, // seeded35
	{{0x3ff0000000000000, 0x3feffffffffffeea, 0x3fedd3f273f825b2, 0x3fedd3f273f824af}, {0x3ff0000000000000, 0x3feffffffffffeea, 0x3feefd9a2a4bec76, 0x3feefd9a2a4beb69}}, // seeded36
	{{0x3feffffffff91e2f, 0x3fefffffa7f518e9, 0x3fdd4fbfc47cf4fd, 0x3fdd4fbf73d15b3c}, {0x3feda9889d9bc1e6, 0x3fefffffa7f518e9, 0x3fe4c59a5d87e03e, 0x3fe3411ff52616d4}}, // seeded37
	{{0x3ff0000000000000, 0x3fefff78623a7ddd, 0x3fed44d9d6146d48, 0x3fed445dcb4efa7b}, {0x3ff0000000000000, 0x3fefff78623a7ddd, 0x3feee037bc1cca88, 0x3feedfb4e1f70594}}, // seeded38
	{{0x3ff0000000000000, 0x3fefffffffffff2f, 0x3fe417964b518887, 0x3fe417964b518804}, {0x3ff0000000000000, 0x3fefffffffffff2f, 0x3fea25a22c1a64d8, 0x3fea25a22c1a642d}}, // seeded39
	{{0x3ff0000000000000, 0x3fefffffffd0330c, 0x3fdaef74e4d70d69, 0x3fdaef74e4aed131}, {0x3feff734bbd12bc4, 0x3fefffffffd0330c, 0x3fe426aa381f40d5, 0x3fe421208d3bac78}}, // seeded40
	{{0x3ff0000000000000, 0x3feffffffffffffe, 0x3fd7da36ff252199, 0x3fd7da36ff252198}, {0x3feffcd41870d15f, 0x3feffffffffffffe, 0x3fe29f92132d1321, 0x3fe29db9904bc26f}}, // seeded41
	{{0x3ff0000000000000, 0x3feffffff5360a58, 0x3fe9d2f9bd965765, 0x3fe9d2f9b4e16dea}, {0x3ff0000000000000, 0x3feffffff5360a58, 0x3fec7391778b60fc, 0x3fec73916df3b333}}, // seeded42
	{{0x3feffffffe470f9f, 0x3feffe4fa48679c2, 0x3fe0ee19350eb36f, 0x3fe0ed34756bc76d}, {0x3febb11681e9384d, 0x3feffe4fa48679c2, 0x3fe659b01a4c885d, 0x3fe3565711fe5db0}}, // seeded43
	{{0x3ff0000000000000, 0x3fef891c193bd48f, 0x3fea7e91721d1973, 0x3fea1c2208e06c10}, {0x3ff0000000000000, 0x3fef891c193bd48f, 0x3fed109cfebeabaa, 0x3feca4a0bc6007db}}, // seeded44
	{{0x3ff0000000000000, 0x3fefffffb710982c, 0x3fdee693dd0168b4, 0x3fdee69396936d9f}, {0x3ff0000000000000, 0x3fefffffb710982c, 0x3fe53a9cdac4def3, 0x3fe53a9caa622b62}}, // seeded45
	{{0x3fd4c94f8fb2f97a, 0x3fefbf429841ddfc, 0x3fec6522dc378f22, 0x3fd24c86ca518360}, {0x3edf4ebd3ca4b49e, 0x3fefbf429841ddfc, 0x3fede8f7812ed451, 0x3edd0814bbd001a2}}, // seeded46
	{{0x3ff0000000000000, 0x3fefffffffffffd6, 0x3feed70c8ca8b321, 0x3feed70c8ca8b2f9}, {0x3ff0000000000000, 0x3fefffffffffffd6, 0x3fef7dd7aaf3e746, 0x3fef7dd7aaf3e71d}}, // seeded47
	{{0x3ff0000000000000, 0x3fefffffffffffe2, 0x3fe6c71b8e12deab, 0x3fe6c71b8e12de96}, {0x3ff0000000000000, 0x3fefffffffffffe2, 0x3feafe8ad9e3c524, 0x3feafe8ad9e3c50b}}, // seeded48
	{{0x3ff0000000000000, 0x3fef65f08e9a656b, 0x3fe3f0ab4f6d3514, 0x3fe390ab77857d69}, {0x3ff0000000000000, 0x3fef65f08e9a656b, 0x3fe89c503396bae6, 0x3fe825d41122bdde}}, // seeded49
	{{0x3ff0000000000000, 0x3fefe15fbcf46f23, 0x3fee6a9deb5a2447, 0x3fee4d81a27dae05}, {0x3ff0000000000000, 0x3fefe15fbcf46f23, 0x3fef4d319047ec62, 0x3fef2f3c6e43e78a}}, // seeded50
	{{0x3ff0000000000000, 0x3feffffffffffc30, 0x3fdc4182ce528e85, 0x3fdc4182ce528b27}, {0x3ff0000000000000, 0x3feffffffffffc30, 0x3fe420c595d7387f, 0x3fe420c595d73619}}, // seeded51
	{{0x3fe9f9a58a7e58e5, 0x3feffff5a4a5f6bc, 0x3fe3f16ddfad820a, 0x3fe0302e639bbb8d}, {0x3fbafacae4d52917, 0x3feffff5a4a5f6bc, 0x3fea154ea5818593, 0x3fb5fdb49fda2b9d}}, // seeded52
	{{0x3feffffffffad70e, 0x3feffee7ff6107dd, 0x3fe99dc2a14f6b86, 0x3fe99ce27c650532}, {0x3fecdffad91c41c8, 0x3feffee7ff6107dd, 0x3fecc185ddf32cb6, 0x3fe9f1b81ec8749a}}, // seeded53
	{{0x3ff0000000000000, 0x3fefffffffff8797, 0x3fe597ef58fca560, 0x3fe597ef58fc541f}, {0x3ff0000000000000, 0x3fefffffffff8797, 0x3fe9af0854b53adb, 0x3fe9af0854b4da36}}, // seeded54
	{{0x3ff0000000000000, 0x3fefffffffffff89, 0x3fe62d666f41e1ab, 0x3fe62d666f41e159}, {0x3ff0000000000000, 0x3fefffffffffff89, 0x3fe9dce6f9423002, 0x3fe9dce6f9422fa2}}, // seeded55
	{{0x3ff0000000000000, 0x3feffffff67f8c82, 0x3feddabf30505975, 0x3feddabf2772fcf3}, {0x3feffffd6fae3a0a, 0x3feffffff67f8c82, 0x3feec6f8dcef80de, 0x3feec6f65c8e6ce7}}, // seeded56
	{{0x3ff0000000000000, 0x3fefffffffffba36, 0x3fe08bd83851ac59, 0x3fe08bd838518843}, {0x3ff0000000000000, 0x3fefffffffffba36, 0x3fe5ec0f74488903, 0x3fe5ec0f74485934}}, // seeded57
	{{0x3ff0000000000000, 0x3fefffdd9d3825e9, 0x3fe11707e18f412f, 0x3fe116f584559db2}, {0x3ff0000000000000, 0x3fefffdd9d3825e9, 0x3fe75643b326a0a3, 0x3fe7562a9f74c374}}, // seeded58
	{{0x3fefffffffffff7d, 0x3feffffffffffff9, 0x3fe87341b09b175b, 0x3fe87341b09b16f2}, {0x3fef52dda49b20d1, 0x3feffffffffffff9, 0x3febe76eae7b7476, 0x3feb50758a847707}}, // seeded59
	{{0x3ff0000000000000, 0x3feffffff717e0ac, 0x3fea7a6256495939, 0x3fea7a624eeaaf6e}, {0x3ff0000000000000, 0x3feffffff717e0ac, 0x3feca701cc4e6dd9, 0x3feca701c454d68c}}, // seeded60
	{{0x3ff0000000000000, 0x3fefffffffffffb1, 0x3fe9534997f344c7, 0x3fe9534997f34488}, {0x3ff0000000000000, 0x3fefffffffffffb1, 0x3fecbc1680ca49ce, 0x3fecbc1680ca4987}}, // seeded61
	{{0x3ff0000000000000, 0x3fefffffffd38c18, 0x3fe0f6bb7c2bdb0a, 0x3fe0f6bb7c144a57}, {0x3ff0000000000000, 0x3fefffffffd38c18, 0x3fe7babf7d3ccf09, 0x3fe7babf7d1bd84f}}, // seeded62
	{{0x3fe981a2b2cb8f0f, 0x3feffe6997a192db, 0x3fd7e4824475c7ce, 0x3fd30a5e8f492caa}, {0x3fabb18243a8564e, 0x3feffe6997a192db, 0x3fe23cbaa87b9827, 0x3f9f8f3e6389896a}}, // seeded63
	{{0x3ff0000000000000, 0x3fefdd5b6f8a8086, 0x3fe8b9d9513c3f7b, 0x3fe89f14b23d1333}, {0x3ff0000000000000, 0x3fefdd5b6f8a8086, 0x3fec662536f327e4, 0x3fec4766a3b61dda}}, // two-pitch
	{{0x3ff0000000000000, 0x3feffff9637d6ece, 0x3fefc86d9bbf65f6, 0x3fefc8670ab813f8}, {0x3ff0000000000000, 0x3feffff9637d6ece, 0x3fefa7daf6749289, 0x3fefa7d46c280f56}}, // quadrants
}

// TestEvaluateSeededGolden replays the captured Breakdown bits for both
// bonding styles over the seeded nil-layout sets and the two layouts.
func TestEvaluateSeededGolden(t *testing.T) {
	for i, want := range evaluateGolden {
		name, p := goldenCase(i)
		w, err := p.EvaluateW2W()
		if err != nil {
			t.Fatalf("%s w2w: %v", name, err)
		}
		d, err := p.EvaluateD2W()
		if err != nil {
			t.Fatalf("%s d2w: %v", name, err)
		}
		if got := breakdownBits(w); got != want[0] {
			t.Errorf("%s w2w %v bits %x, want %x", name, w, got, want[0])
		}
		if got := breakdownBits(d); got != want[1] {
			t.Errorf("%s d2w %v bits %x, want %x", name, d, got, want[1])
		}
	}
}
