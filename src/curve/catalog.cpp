/**
 * @file
 * Curve catalog data and family derivations.
 *
 * Parameter provenance: BN254N (Nogami et al.), BN462 (ISO/AIST), BN638
 * and BLS12-381 / BLS12-446 (literature values) verified by
 * tools/param_search; BLS12-638 and BLS24-509 use parameters generated
 * by the same tool (the published values were not recoverable offline;
 * bit lengths and family shape match Table 2 of the paper exactly).
 *
 * Each entry's CurveFacts were produced by deriveCurveFacts and printed
 * by catalogEntryLiteral; test_allcurves (FactsMatchDerivation) holds
 * them equal to the derivation.
 */
#include "curve/catalog.h"

#include <algorithm>

#include "bigint/mont.h"
#include "support/common.h"

namespace finesse {

namespace {

BigInt
big(const char *hex)
{
    return BigInt::fromString(hex);
}

/**
 * `big("0x...")` for @p v starting at @p column, the digits split
 * into adjacent string literals so that no line passes column 79
 * (room is left for a closing "}}," on the last line).
 */
std::string
bigLiteral(const BigInt &v, size_t column)
{
    const std::string hex = v.abs().toHexString();
    std::string out = v.isNegative() ? "-big(\"" : "big(\"";
    const std::string indent(column + out.size() - 1, ' ');
    size_t width = 79 - 4 - column - out.size();
    for (size_t pos = 0;;) {
        const size_t n = std::min(width, hex.size() - pos);
        out += hex.substr(pos, n);
        out += '"';
        pos += n;
        if (pos == hex.size())
            return out + ")";
        out += "\n" + indent + '"';
        width = 79 - 4 - indent.size() - 1;
    }
}

/** `{big(...),\n big(...)}` with every element starting at @p column. */
std::string
bigListLiteral(const std::vector<BigInt> &vs, size_t column)
{
    std::string out = "{";
    for (size_t i = 0; i < vs.size(); ++i) {
        if (i > 0)
            out += ",\n" + std::string(column + 1, ' ');
        out += bigLiteral(vs[i], column + 1);
    }
    return out + "}";
}

} // namespace

CurveInfo
deriveCurveInfo(const CurveDef &def)
{
    CurveInfo info;
    info.def = def;
    const BigInt &x = def.x;
    const BigInt one(u64{1});
    switch (def.family) {
      case CurveFamily::BN: {
        const BigInt x2 = x * x;
        const BigInt x3 = x2 * x;
        const BigInt x4 = x2 * x2;
        info.p = BigInt(u64{36}) * x4 + BigInt(u64{36}) * x3 +
                 BigInt(u64{24}) * x2 + BigInt(u64{6}) * x + one;
        info.t = BigInt(u64{6}) * x2 + one;
        info.r = info.p + one - info.t;
        info.k = 12;
        break;
      }
      case CurveFamily::BLS12: {
        const BigInt x2 = x * x;
        info.r = x2 * x2 - x2 + one;
        info.t = x + one;
        info.p = ((x - one).pow(2) * info.r).divExact(BigInt(u64{3})) + x;
        info.k = 12;
        break;
      }
      case CurveFamily::BLS24: {
        const BigInt x4 = (x * x).pow(2);
        info.r = x4 * x4 - x4 + one;
        info.t = x + one;
        info.p = ((x - one).pow(2) * info.r).divExact(BigInt(u64{3})) + x;
        info.k = 24;
        break;
      }
    }
    FINESSE_REQUIRE(isProbablePrime(info.p), def.name, ": p not prime");
    FINESSE_REQUIRE(isProbablePrime(info.r), def.name, ": r not prime");
    FINESSE_REQUIRE((info.p % BigInt(u64{6})) == one, def.name,
                    ": p != 1 mod 6");
    return info;
}

const std::vector<CurveDef> &
curveCatalog()
{
    static const std::vector<CurveDef> curves = {
        {"BN254N", CurveFamily::BN,
         -big("0x4080000000000001"), 100,
         CurveFacts{
             .b = 2, .twist = TwistType::D,
             .q = -1, .xi0 = 1, .xi1 = 1,
             .g1x = big("0x2"),
             .g1y = big("0x20618254445cd1a9fe1f777d9c2d7076c736a280ec6066e9"
                        "5c7198a4cfc31c"),
             .g2x = {big("0x709c6776299080ba18b8f699e70e6ea3c281d9a853a5c75"
                         "e1938b07d677f1de"),
                     big("0x2420e103b8df886de081595f9795b931998398a2d278bad"
                         "5fb6a35bf403535fb")},
             .g2y = {big("0xb90d0421e0d646f689b71e1ea69bb51c77e396c31ce327a"
                         "d0fcf00e129f438d"),
                     big("0x89897a1498f1af571721a7cd445d72a3c32ffa8509697c0"
                         "7d67cc7f801cd05c")},
             .beta = big("0x25236482400000017080eb4000000006181800000000000"
                         "cd98000000000000b"),
             .lambda = big("0x252364824000000126cd8900000000024908fffffffff"
                           "ffcf9fffffffffffff6")}},
        {"BN462", CurveFamily::BN,
         big("0x4001fffffffffffffffffffffbfff"), 130,
         CurveFacts{
             .b = 5, .twist = TwistType::M,
             .q = -1, .xi0 = 1, .xi1 = 1,
             .g1x = big("0x1"),
             .g1y = big("0xbe7daebe10d7441d7394f5f30fc0d6bb164bd0c9ecf9b00a"
                        "52c5e5c047569ab44111a59602900c272dda0d8ff25d2831cc"
                        "1d3563164734e20f4"),
             .g2x = {big("0x1b2099c8e35a85352ec3860e15aa1170e323669ed0a1d26"
                         "dde3756017b8d7f11514db9f8aa6a9741893486fbea12075d"
                         "d511482643af00e094aa"),
                     big("0x12127b9c2a5fe0982355e30df5341fa2a5fa25ab6a78b03"
                         "65eed76c84b24be91eeb361fd88207a0ffbabaf35ac3d27af"
                         "76c5b48a6fa106bc29c0")},
             .g2y = {big("0x13d1811930507f11d06ba94aba051a4be3aa5e6c6762408"
                         "802c7d793363973091e882e02483f24311e11bbae41c15b5a"
                         "c3cd3098707a65994bb2"),
                     big("0xe5373519c38602b5175d7e85ee475b59056a1a54e42dcb1"
                         "b2ce2d3ed76139e097255a1fc4d15143003655c51f7199173"
                         "4187fa88fb2184e1f55")},
             .beta = big("0x240480360120023ffffffffff6ff08764bd65fc10000000"
                         "000d813689f0222029ffffffffff6ff597bbbf3dbf2e00000"
                         "00002401f80a801a401a"),
             .lambda = big("0x240480360120023ffffffffff6ff03f5dfd2ffb800000"
                           "00000d81440af8288035ffffffffff6ff4bfaeff03fee00"
                           "000000002402400d80240023")}},
        {"BN638", CurveFamily::BN,
         big("0x3ffffffefffffffffffffff00000000000000001"), 153,
         CurveFacts{
             .b = 5, .twist = TwistType::D,
             .q = -1, .xi0 = 2, .xi1 = 1,
             .g1x = big("0x2"),
             .g1y = big("0x9f541c2fd2a40674eb10e994fe2a5634524fda6b3890ad5c"
                        "72040a8ec413e403d104a32de9f6eb3cf1a2ca75f18fa385c5"
                        "c703200370b4263e4e49ecf038449c70623a0cc7f46508069c"
                        "503eeac313c"),
             .g2x = {big("0x1687eaf5172c3e92b92b026c1ddd1b70a4c308f257f03b4"
                         "4e860985b47609c7021f04d2458d95678d03b37e8f5617eef"
                         "4717133c58f65584b3c9b0967ed13e1446a87b0d531323009"
                         "e3e8c53a5431dbf"),
                     big("0x16b541444a47a150f2d5f44df8ba3a310fcf9229866431f"
                         "96028f9bd016f6fac0450ebad7f483b54939362ed8a020b44"
                         "47a6e40396099122844947e849a712b6a41b82a24d09789bc"
                         "25627fc52aacff3")},
             .g2y = {big("0x162b1ef99a344a3d0201ea38702ebddce8126eda4a386f6"
                         "2f8417f9cd24e0247cacb9b80c0b19dec85286948a7351c04"
                         "b89d6d52f8243b43f0df25b96cf2ba4bee49fe8a563aa7024"
                         "b05728d83b21bfb"),
                     big("0x186e57f5160da800207cb737feb229335fa0274e9ddd50d"
                         "b0376ad3de34849759b9e3c56a0a99a3a659e755f0fb5c378"
                         "a617aa64594a14171a7e2bd25cb0fc46338db41c59226d5b1"
                         "7f532c795547b4e")},
             .beta = big("0x23fffffdc000000d7fffffb8000001d3fffff9428800166"
                         "19fff94798000d577fffdcf300008e1b1400078f600221b13"
                         "fffff75ffff6028000000033c0011330fffffffffffff3100"
                         "000000000000038"),
             .lambda = big("0x23fffffdc000000d7fffffb8000001d3fffff94240001"
                           "664ffff946c0000d5bffffdcd800008e50d80006b940022"
                           "50d7fffff93ffff71b00000000240000d76ffffffffffff"
                           "ff7000000000000000023")}},
        {"BLS12-381", CurveFamily::BLS12,
         -big("0xd201000000010000"), 123,
         CurveFacts{
             .b = 4, .twist = TwistType::M,
             .q = -1, .xi0 = 1, .xi1 = 1,
             .g1x = big("0x17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905"
                        "a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb"),
             .g1y = big("0x8b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af60"
                        "0db18cb2c04b3edd03cc744a2888ae40caa232946c5e7e1"),
             .g2x = {big("0x4d1cc4ad56b68cdb595adb46cad2cc82e3d0da9a75ef283"
                         "b6bbd91df14533e1a45128ec26f8ab25072da969d7628b70"),
                     big("0x13a471d5149813b306fe76921cff7bb8d5c03fdc24a613f"
                         "3e7a7fb8deb8097699751485a0bd2ad391718aaa4419ce75b")},
             .g2y = {big("0xfc411bd8d2395aeac83bf0016a89cdb0881a0d80772f5e4"
                         "034f3842c124ae1fdb0d24667ae7fd0291be3846ffb01f12"),
                     big("0x1cc8176092bdf985091021e4bad494155afdb4d4bab7259"
                         "606c0d151eaf5cba310047e339591e7b3056f2b845480d86")},
             .beta = big("0x1a0111ea397fe699ec02408663d4de85aa0d857d89759ad"
                         "4897d29650fb85f9b409427eb4f49fffd8bfd00000000aaac"),
             .lambda = big("0xac45a4010001a40200000000ffffffff")}},
        {"BLS12-446", CurveFamily::BLS12,
         -big("0x6008204000000020001"), 130,
         CurveFacts{
             .b = 1, .twist = TwistType::M,
             .q = -1, .xi0 = 1, .xi1 = 1,
             .g1x = big("0x326ed6bd777fc6a311b73d3d76ae98512ce8c34265bf3841"
                        "6b20d782901a6f6211c1e56b3e4bc80b8bc02b7cbe6a9e8d3b"
                        "f9166c8236f4fa"),
             .g1y = big("0x1a7caf4a4d3887a6d6d62d244e413636f843c947aa57f571"
                        "39d7f424b6660204b9093f32002756da22db0ce6034a9db9fe"
                        "6f792612016b30"),
             .g2x = {big("0x21f8d4a76f74541aa57c0038441f7d1518dad8ed784dd22"
                         "5062b61439640e885043c6bf16312d638d6ebaf149094f1cc"
                         "0e529ee4dce9991d"),
                     big("0x1e0f563c601bb8dca1b4e791d1b86560debaf4a2c553452"
                         "771449cdeca4f00072879dd439b019b8b7cef6acb145b6413"
                         "caf5185423a7d23a")},
             .g2y = {big("0x115ea2305a78f6460cc61570301497a7ddff621b5db3f89"
                         "70177bfd6654e681e00346cebad16a03682039e4221ff3507"
                         "274315837455b919"),
                     big("0x25ed2192b203c1fe76a2ffcb7d47679d0b0bcc3fb6f2161"
                         "c7532834528cd5a648a8e6755f9d82fd1d8ab17c84b9f03cd"
                         "392236e9cf2976c2")},
             .beta = big("0x1e6cdd3293325b95df27348d6a9bd508d8eb96b7327f669"
                         "160a10788d59e7086535eebd51bc0dcb32c009400320004"),
             .lambda = big("0x511b70539f27995b34995830fa4d04c98ccc49c4aa409"
                           "b1a0d8c0c820500020001000000000")}},
        {"BLS12-638", CurveFamily::BLS12,
         -big("0x60c0321793083d9a9e3ce3a1e31"), 148,
         CurveFacts{
             .b = 1, .twist = TwistType::D,
             .q = -1, .xi0 = 1, .xi1 = 1,
             .g1x = big("0x279acd4b0aeed575ad4d3f2918f450d48a9c457972b41040"
                        "b4f05c6c2b13f2d18e877b592b61db056c11e66447f1ee69a0"
                        "6eade6ec489a0fb1f748c1a8f296208fab5f540e45ffcc0527"
                        "3803797a8a7d"),
             .g1y = big("0x2463a4a2818288d00bc0a114817949b42a64023e2d8af95d"
                        "80235f95559ad6250bb5cab2256b82ffa477faf1c67fbeab42"
                        "83e8d12d55615c7d522dbf2c033180f6720b6373523854bca0"
                        "41d2f50b2c44"),
             .g2x = {big("0x334ed35763bf84e606b1e10416ad3a5dd7ecbdb150d4aa0"
                         "a78c28f9c91108ff9a4854a929586486ff86e51695e783f8c"
                         "6580223f2d4af8a1648a1ffb80caf04c1f2ff71cb51e92725"
                         "7f9aed353c20337"),
                     big("0x34c0d63f1c7dfb5bdb043a0e654ddb3731d3acefb071e73"
                         "87809b6b9e805ca279ea1a8cb07b6eecf77073c826e3e2d2b"
                         "33fc50418ceecdcc087e0aca99b8ef9ea957843bfa4312069"
                         "d2ce4d083f62bae")},
             .g2y = {big("0x2b2caa4fbc561e210897f624ab38187bff03763e5972e3b"
                         "6a7538e6d081aa72ea13d8ef425b48d350e241c1b5baec781"
                         "3d2d60e7de6eaa2cc32069314e348f21da059a02c561355e7"
                         "81e3a5f9f45ddfc"),
                     big("0x8b96e1a000f6b610e253ae022aad19d183396ef8a17f4e8"
                         "5cec6070cc280b89146778a2b77a3c383931e0b8e9f9b7e25"
                         "4732e50c5f6a0592dd3710c25f9c62eb06255533068b76c68"
                         "f859b7e37c0c8")},
             .beta = big("0x3fa828ef8653eb813080db087b9178d839bb24a5cd8d267"
                         "87ff89d16aa60d224e058f347968768f2fdf10edd223879e3"
                         "e8e8a89e1d4efd98dd52b88c182714ca015a3c266869c7eae"
                         "1fb0825daefcc86"),
             .lambda = big("0x2490b5dcdb6ff22b5698f4aa8f3399cef94ecd7221d2a"
                           "e8dc38560")}},
        {"BLS24-509", CurveFamily::BLS24,
         -big("0x7f90b57fc6ff8"), 192,
         CurveFacts{
             .b = 7, .twist = TwistType::D,
             .q = -1, .xi0 = 1, .xi1 = 1,
             .g1x = big("0x4c39e8763a1c0989ab3e1a2d1c2b6a8cf1336078e2ca5637"
                        "2fc27e5dbb3d65cb31625c76e32e38cd09c5f2b95546f21276"
                        "6e1701a441989f309060445fe81e3"),
             .g1y = big("0x9821cf60b3f2379416dc2eb5a1473755281b651b7d5e2738"
                        "5082649d7509b94b0663013603f5e3666167e02accc2a32aaf"
                        "d5101b25e448c69aa568394ecd94d"),
             .g2x = {big("0x925abbeb539bf3af688ba562f9b46123f3d9632c000c2bc"
                         "c5a1ee998fd17b8da8e1dd1a7e23ce815fc9cd01a24c51049"
                         "33705c01b91e84ad2c273906d5198bd"),
                     big("0x8e8dfbd4be043039a1636d613aa5b7619b2541d82bcbe75"
                         "225a402285307b8b8934ba0502aa427e1127ee801e0d4d80e"
                         "010d7341c9979ba97eddc4646c8a5cd"),
                     big("0x127c1cef2a29bab36a015850e8d0919b19b7d05c6a248bc"
                         "d36940ccb3daf7c9251f66b64f847f3e295c793630ddb3ca5"
                         "1709cca8066a3b37e0f52064a82681c8"),
                     big("0x48beaf9cd7d2e6114d756ea3ddcdf5cf7a72c911cc81e68"
                         "e655ee511e5740e5113aea903a65f9a7c1725ca2ee48899ed"
                         "cca02bbe464c78ebc891d324fbf29a3")},
             .g2y = {big("0x409a77e1328737d17373c98f6ed741be7404c97c7196fbd"
                         "d09ad8341fa38f5ffec231503db7d22efcae58d254412da63"
                         "3bddd98af818e07739f41dfcbd18600"),
                     big("0x139ad00bddb6159da19d5cdb1d5454907e7a0d9d1209841"
                         "0cd388fcc20c31868d072abb3454b25e25d07ff97020a6fd8"
                         "af3a629c79e0e447db3a115cad9e5ab"),
                     big("0x2106166d1cfc55fc1840bb0c462f8c9067f5ef3ac7964f7"
                         "751c8456340e1037741575c57e2778a112bfa04588acb6650"
                         "0d570e1676dc5d0cbf9e13f95b29ccc"),
                     big("0xcbc837c92403187cf22e155d720136650917e147620e027"
                         "b2158ab285156eed953d6cfede74121a831bb2280ef61f767"
                         "668f423dc1a72c2e0444330fa53bb87")},
             .beta = big("0x149ea85afb8c929da36b73eb4806bf45a13772be280c08f"
                         "6cdf162e341e5bdbb2be460e9220fed2ca03c2196908ce279"
                         "3f7f8cc69c539de40e5d8b4b741b173c"),
             .lambda = big("0xfc8a3286513eb71f5e5550cb87a2cfacccd9e030a499c"
                           "800fff")}},
    };
    return curves;
}

const CurveDef &
findCurve(const std::string &name)
{
    for (const auto &c : curveCatalog()) {
        if (c.name == name)
            return c;
    }
    fatal("unknown curve: ", name);
}

std::string
catalogEntryLiteral(const CurveDef &def)
{
    const CurveFacts &f = def.facts;
    const std::string field(13, ' ');
    const auto line = [&](const char *key, const std::string &value) {
        return field + "." + key + " = " + value + ",\n";
    };
    const size_t valueColumn = field.size() + 4;
    std::string out = std::string(8, ' ') + "{\"" + def.name +
                      "\", CurveFamily::" + toString(def.family) + ",\n" +
                      std::string(9, ' ') + bigLiteral(def.x, 9) + ", " +
                      std::to_string(def.securityBits) + ",\n" +
                      std::string(9, ' ') + "CurveFacts{\n";
    out += field + ".b = " + std::to_string(f.b) + ", .twist = TwistType::" +
           toString(f.twist) + ",\n";
    out += field + ".q = " + std::to_string(f.q) + ", .xi0 = " +
           std::to_string(f.xi0) + ", .xi1 = " + std::to_string(f.xi1) +
           ",\n";
    out += line("g1x", bigLiteral(f.g1x, valueColumn + 3));
    out += line("g1y", bigLiteral(f.g1y, valueColumn + 3));
    out += line("g2x", bigListLiteral(f.g2x, valueColumn + 3));
    out += line("g2y", bigListLiteral(f.g2y, valueColumn + 3));
    out += line("beta", bigLiteral(f.beta, valueColumn + 4));
    out += field + ".lambda = " + bigLiteral(f.lambda, valueColumn + 6) +
           "}},\n";
    return out;
}

u64
hashCatalog(const std::vector<CurveDef> &defs)
{
    // FNV-1a over every field of every CurveDef, in order. Folding in
    // BigInt::hashValue() covers the family parameter and the facts'
    // numbers; the name bytes cover renames; the order covers
    // reorderings (group ids index into the grouping, which iterates
    // the catalog).
    u64 h = 14695981039346656037ull;
    const auto mix = [&h](u64 v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    for (const CurveDef &def : defs) {
        for (const char c : def.name)
            mix(static_cast<u8>(c));
        mix(static_cast<u64>(def.family));
        mix(def.x.hashValue());
        mix(static_cast<u64>(def.securityBits));
        const CurveFacts &f = def.facts;
        for (const i64 v : {f.b, static_cast<i64>(f.twist), f.q, f.xi0,
                            f.xi1})
            mix(static_cast<u64>(v));
        for (const BigInt *v : {&f.g1x, &f.g1y, &f.beta, &f.lambda})
            mix(v->hashValue());
        for (const std::vector<BigInt> *vs : {&f.g2x, &f.g2y}) {
            mix(vs->size());
            for (const BigInt &v : *vs)
                mix(v.hashValue());
        }
    }
    return h;
}

u64
catalogHash()
{
    return hashCatalog(curveCatalog());
}

} // namespace finesse
