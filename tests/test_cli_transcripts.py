"""Golden transcripts of the command line: exit code, stdout and stderr.

Each case runs one ``cartankit`` invocation in-process and compares the
SHA-256 of its exit code, stdout and stderr with a recorded digest.  The
cases cover every subcommand in text and ``--json`` on four fixtures, the
ways an input can be wrong, and one injected internal error.  A change to
how the command line reports results or maps errors to exit codes has to
keep every digest.

Every case runs in a fresh working directory that holds copies of the
files it names, so a message that quotes a path reads the same everywhere.
"""

import hashlib
import json
import shutil

import pytest
from click.testing import CliRunner

from cartankit import cli
from cartankit.catalog import bundled_fixtures, bundled_models
from cartankit.cli import main
from cartankit.errors import InternalInconsistency

ALGEBRAS = ("sl2", "e2", "sl2xR2", "sl2xheis")

# an ideal of each algebra for the quotient round trip
IDEALS = {
    "sl2": '[["1","0","0"],["0","1","0"],["0","0","1"]]',
    "e2": '[["0","1","0"],["0","0","1"]]',
    "sl2xR2": '[["0","0","0","1","0"],["0","0","0","0","1"]]',
    "sl2xheis": '[["0","0","0","1","0","0"],["0","0","0","0","1","0"],["0","0","0","0","0","1"]]',
}

# [x,y] = y, [y,z] = x, [x,z] = z: antisymmetric, but not a Lie algebra
BAD_JACOBI = {
    "name": "broken",
    "dim": 3,
    "basis": ["x", "y", "z"],
    "brackets": {"0,1": {"1": "1"}, "1,2": {"0": "1"}, "0,2": {"2": "1"}},
}

# files written into the working directory besides the fixture and model copies
FILES = {
    "broken.json": json.dumps(BAD_JACOBI).encode(),
    "bytes.json": b"\xff\xfe",
    "malformed.json": b'{"dim": 3,',
    "bad-model.json": json.dumps({"name": "m", "cartan_classes": [{"vector_rank": 1}]}).encode(),
    "classes-not-a-list.json": json.dumps({"name": "m", "cartan_classes": {"a": {}}}).encode(),
    "class-as-list.json": json.dumps({"name": "m", "cartan_classes": [[1, 0]]}).encode(),
    "no-classes.json": json.dumps({"name": "m", "cartan_classes": []}).encode(),
    "negative-rank.json": json.dumps(
        {"name": "m", "cartan_classes": [{"vector_rank": -1, "torus_rank": 0}]}
    ).encode(),
    "order-one.json": json.dumps(
        {"name": "m", "cartan_classes": [{"vector_rank": 1, "torus_rank": 0, "component_orders": [2, 1]}]}
    ).encode(),
}


def _success_cases():
    cases = {}
    for name in ALGEBRAS:
        path = f"{name}.json"
        for fmt, flags in (("text", []), ("json", ["--json"])):
            cases[f"analyze-{name}-{fmt}"] = ["analyze", path, *flags]
            methods = ("regular", "composite", "chain") if name == "e2" else ("regular", "composite")
            for method in methods:
                cases[f"cartan-{method}-{name}-{fmt}"] = ["cartan", path, "--method", method, *flags]
            cases[f"levi-{name}-{fmt}"] = ["levi", path, *flags]
            cases[f"quotient-{name}-{fmt}"] = ["quotient", path, "--ideal", IDEALS[name], *flags]
            cases[f"verify-{name}-{fmt}"] = ["verify", path, *flags]
    for model in sorted(bundled_models()):
        if model == "triples":
            continue
        for k in (2, 3):
            cases[f"powermap-{model}-k{k}-text"] = ["powermap", f"{model}.json", "-k", str(k)]
            cases[f"powermap-{model}-k{k}-json"] = ["powermap", f"{model}.json", "-k", str(k), "--json"]
    cases["catalog-text"] = ["catalog"]
    cases["catalog-json"] = ["catalog", "--json"]
    cases["verify-no-paths"] = ["verify"]
    return cases


def _error_cases():
    cases = {}
    commands = {
        "analyze": [],
        "cartan": [],
        "levi": [],
        "quotient": ["--ideal", "[]"],
        "powermap": ["-k", "2"],
        "verify": [],
    }
    for command, rest in commands.items():
        for kind, path in (("missing", "missing.json"), ("directory", "adir"), ("not-utf8", "bytes.json")):
            cases[f"{command}-{kind}"] = [command, path, *rest]
        cases[f"{command}-malformed-json"] = [command, "malformed.json", *rest]
    for command in ("analyze", "cartan", "levi"):
        cases[f"{command}-jacobi-broken"] = [command, "broken.json"]
    cases["quotient-jacobi-broken"] = ["quotient", "broken.json", "--ideal", "[]"]
    cases["quotient-bad-ideal-json"] = ["quotient", "sl2.json", "--ideal", '[["1",']
    cases["quotient-ideal-not-a-list"] = ["quotient", "sl2.json", "--ideal", '{"h": "1"}']
    cases["quotient-not-an-ideal"] = ["quotient", "sl2.json", "--ideal", '[["1","0","0"]]']
    cases["quotient-wrong-length-vector"] = ["quotient", "sl2.json", "--ideal", '[["1","0"]]']
    cases["quotient-bad-rational"] = ["quotient", "sl2.json", "--ideal", '[["1/0","0","0"]]']
    cases["cartan-chain-sl2"] = ["cartan", "sl2.json", "--method", "chain"]
    cases["cartan-chain-sl2-json"] = ["cartan", "sl2.json", "--method", "chain", "--json"]
    cases["powermap-k0"] = ["powermap", "sl2r-model.json", "-k", "0"]
    cases["powermap-k-negative"] = ["powermap", "sl2r-model.json", "-k", "-3", "--json"]
    cases["powermap-malformed-model"] = ["powermap", "bad-model.json", "-k", "2"]
    cases["powermap-algebra-file"] = ["powermap", "sl2.json", "-k", "2"]
    cases["powermap-classes-not-a-list"] = ["powermap", "classes-not-a-list.json", "-k", "2"]
    cases["powermap-class-as-list"] = ["powermap", "class-as-list.json", "-k", "2"]
    cases["powermap-no-classes"] = ["powermap", "no-classes.json", "-k", "2"]
    cases["powermap-negative-rank"] = ["powermap", "negative-rank.json", "-k", "2"]
    cases["powermap-order-one"] = ["powermap", "order-one.json", "-k", "2", "--json"]
    cases["verify-all-with-path"] = ["verify", "--all", "sl2.json"]
    cases["verify-jacobi-broken"] = ["verify", "broken.json"]
    cases["verify-jacobi-broken-json"] = ["verify", "broken.json", "--json"]
    return cases


CASES = {**_success_cases(), **_error_cases()}

# the one case that does not run as given: cartan's construction raises an
# internal error, which exits 3
INJECTED = "cartan-injected-internal-error"
CASES[INJECTED] = ["cartan", "sl2.json"]


# recorded before the command line had one error boundary.  Recorded again
# since: the Jacobi-broken cases of analyze, cartan, levi and quotient and
# quotient-not-an-ideal, when failure messages began to write rationals as
# 1 or -3/2 in place of Fraction reprs; quotient-bad-rational,
# powermap-classes-not-a-list and powermap-class-as-list, when their
# messages stopped quoting Python's own error text
EXPECTED = {
    "analyze-directory": "acb529370b8190d9b4d99694e6f41de0f10a08b47b0f1b0f1dbf13022a04aa2f",
    "analyze-e2-json": "32d66cc61ad67732e9ad826ac75930385d9ba07412eb888e79ed2f7807f3a830",
    "analyze-e2-text": "e0fe2573e0ce355e90f3b80c22f4b36c4bd46bf501cc58698f2861cbcb0840ee",
    "analyze-jacobi-broken": "e806bdd654342efcf03449ed51c83154a66ab242d9cd91e6abb615ee98919d7a",
    "analyze-malformed-json": "f29414c14726d5624f793e0b560f02d81eaf6d40019f7010e269797c065c057b",
    "analyze-missing": "cd5680ba4eab1f6be7cb38ce47b2194360e116555616d4ab473936ff109db980",
    "analyze-not-utf8": "0af0229c14cf1aab89fe5d904667f769a37c836cdcfdd451f537885677ddc599",
    "analyze-sl2-json": "8f14b8f2938d0a2fcd4a8f2349a29697515785d4ead754ed3d3f45c7175c32aa",
    "analyze-sl2-text": "63b7b78e65599b28acb741d18b4ff8299be1ee48c385b13d42ce3759157d08c5",
    "analyze-sl2xR2-json": "8cdd2640aafe19afd5303a95886ebd266c135ab27b5ade88549ad6d33862df05",
    "analyze-sl2xR2-text": "c3aa5cf5a5f6043939fbbf24591abccc11a031f530f3c471a9f468d92517677a",
    "analyze-sl2xheis-json": "90a1d57b14c13c6f37995a064ebd7103df3d5ff925633b715dfee7e837e0c836",
    "analyze-sl2xheis-text": "adfc27d1ee73d6641ce75ec8b2a7b7a6b88ad4945b474b2c13fc8f7c88f72542",
    "cartan-chain-e2-json": "2c6af343f2577a0de6dd24cbb50e4cc0a4f6a0ae2749c5ee0f0f43ffb09a5df4",
    "cartan-chain-e2-text": "e6d7ca0ec20365ba1f7efeb3dccda4a00660b0a378628c9b89fa3869913f9828",
    "cartan-chain-sl2": "659dea087475467214f880264b7924efa4ac01c7b1a4cb54f32bec8da280471b",
    "cartan-chain-sl2-json": "659dea087475467214f880264b7924efa4ac01c7b1a4cb54f32bec8da280471b",
    "cartan-composite-e2-json": "3ed62b93255b55fbee0af797cb3f198eab0cedabc36abfe558dcd6efb5f876b9",
    "cartan-composite-e2-text": "72ef3d744c101c1f65efb91d10dd595cfa713cf304cdd0107973a338718e3dd7",
    "cartan-composite-sl2-json": "f424bc84d5604970ff56dbe5de00a662124b052d9c08d2d3a4abdaf45843e115",
    "cartan-composite-sl2-text": "fd56eb60ce742f46d99a0122a525b1b8b8194f0af7ab728f3d36eac4ad8a9fd9",
    "cartan-composite-sl2xR2-json": "e36e4e74c1ba36f8a1b9abf5682989134477eb2e82c2c8a583d6c6a49d44c7f0",
    "cartan-composite-sl2xR2-text": "fd56eb60ce742f46d99a0122a525b1b8b8194f0af7ab728f3d36eac4ad8a9fd9",
    "cartan-composite-sl2xheis-json": "632cf2eb7a43c6f5b05016778b797954ae6deaf313665d1f289e2902b0be4067",
    "cartan-composite-sl2xheis-text": "5a2bbd4d3cda0b99203f7d2978a8516d633128b0943394a1055ea793939dc5f3",
    "cartan-directory": "acb529370b8190d9b4d99694e6f41de0f10a08b47b0f1b0f1dbf13022a04aa2f",
    "cartan-injected-internal-error": "93dccab4a2c03a41dd883d46d86ca435ca6653e224f23db6ac58bcb1a20d5c40",
    "cartan-jacobi-broken": "e806bdd654342efcf03449ed51c83154a66ab242d9cd91e6abb615ee98919d7a",
    "cartan-malformed-json": "f29414c14726d5624f793e0b560f02d81eaf6d40019f7010e269797c065c057b",
    "cartan-missing": "cd5680ba4eab1f6be7cb38ce47b2194360e116555616d4ab473936ff109db980",
    "cartan-not-utf8": "0af0229c14cf1aab89fe5d904667f769a37c836cdcfdd451f537885677ddc599",
    "cartan-regular-e2-json": "87c2efbbc503910c01b769501befba8ce55f9cae0fb1410bf7ea4f07e29e6d67",
    "cartan-regular-e2-text": "bc20ca4e5f6fbaf43306fb0deed12e3e1393317e50af4899c85f110c9cf23fb3",
    "cartan-regular-sl2-json": "87c2efbbc503910c01b769501befba8ce55f9cae0fb1410bf7ea4f07e29e6d67",
    "cartan-regular-sl2-text": "f4f56857ab8f9ac22bb5cc2744e51499f0e1c87b2918487c6bb72d81b78626bd",
    "cartan-regular-sl2xR2-json": "2eb833a57a1f8e76b0bda92a4b81300f98290c21eaa40f7a59c3d257c6b04f9c",
    "cartan-regular-sl2xR2-text": "811c41ddca4a8e6a92eb65764db5e49a60b022f832259255ebc689406e51828e",
    "cartan-regular-sl2xheis-json": "096de616598cbfa083603ac6bba502828857c682745b45be6084d7fe8e0c6fd3",
    "cartan-regular-sl2xheis-text": "47c316b5861447777f2f3bf8394229139428921462220c77f8ac03b5c7a2e69d",
    "catalog-json": "0f0dcd5b007e2bb2f5920c3ac051e0ac2a7f490d306136ccf7d45d3cf185e300",
    "catalog-text": "bee44f228d37ddc26f8394539daa71b3caf941551e8a92e333fbc37f4fddb640",
    "levi-directory": "acb529370b8190d9b4d99694e6f41de0f10a08b47b0f1b0f1dbf13022a04aa2f",
    "levi-e2-json": "b9021d8f125d6cf01c1eeb87247daadc2e2f19328a20b4e1eafef09967230035",
    "levi-e2-text": "473cf734f8373179c8d2d85c321300ec62380fe4ef091a82f27a3e6158a840d9",
    "levi-jacobi-broken": "e806bdd654342efcf03449ed51c83154a66ab242d9cd91e6abb615ee98919d7a",
    "levi-malformed-json": "f29414c14726d5624f793e0b560f02d81eaf6d40019f7010e269797c065c057b",
    "levi-missing": "cd5680ba4eab1f6be7cb38ce47b2194360e116555616d4ab473936ff109db980",
    "levi-not-utf8": "0af0229c14cf1aab89fe5d904667f769a37c836cdcfdd451f537885677ddc599",
    "levi-sl2-json": "16c779f77a8ad7952cf446005373ba7a3b194f98da5d550c3eff73da232bf85b",
    "levi-sl2-text": "b5468be9bf441ff35bfc873ff37c78fdf8ddec61504681dc23323dd6f95ac625",
    "levi-sl2xR2-json": "8b8f94f48933d975654c8eb7e0d9e118e576c19ffd963b8a3647003bd3b05ac8",
    "levi-sl2xR2-text": "bdc9e5546008a7ff2074de79a26775f9b5b4bdbcd7f91996ef4604b0f97d5eca",
    "levi-sl2xheis-json": "5cc01ac0023644911ad28aa27d789957c37ecb21afa88f25cee863150e8fe7bd",
    "levi-sl2xheis-text": "b86ce0fe11409b622bd6ee4fd8f42b9b197ed59e4357d84357d69001d7448450",
    "powermap-algebra-file": "f869e5a384b7bf20e86c4d45013e15d00bc97499ad3d8e5b2a3f785a06c497c0",
    "powermap-class-as-list": "594ff0c9204b78c99960ab2298608277b0953b7d6c76a5342b9132df980b3605",
    "powermap-classes-not-a-list": "4d344e31ab009d606074155973bdb585ead816a6adff3441284fa7df4960504e",
    "powermap-directory": "acb529370b8190d9b4d99694e6f41de0f10a08b47b0f1b0f1dbf13022a04aa2f",
    "powermap-finite-stress-model-k2-json": "b5e501117e9e86fe275fb0696441df94f783fe97fde1bb5a36b3f9963862aadd",
    "powermap-finite-stress-model-k2-text": "82f12db6ffea85974715f12d808a70e5c1695ad2322d5071cd54fff852319a54",
    "powermap-finite-stress-model-k3-json": "602956af824c54212c6554190d0bb97c6f1f1bd27dbe7d962044ed97d25f68dc",
    "powermap-finite-stress-model-k3-text": "0f8a0e6a7243b4544ab52f6fedb8b4a28d6e06dfcf31e37c90582cfd5487d457",
    "powermap-heis3-model-k2-json": "6f24969012220cee42343ca1a23a8a5caa0d2ffb6bae4f56718319ef4918e31b",
    "powermap-heis3-model-k2-text": "3bf5d46704998f9cbe5211e8d9b2984b3a21f602763408c1119615441c5c3668",
    "powermap-heis3-model-k3-json": "397caa9b54a6c31acd1f8a59eba405d3478d8fbd8d9a64790cdb70ab27adba4c",
    "powermap-heis3-model-k3-text": "cb7e8184c24d031fcba42dd586fc94a8f5f1a8cb2303438d1a37d166942c5f0c",
    "powermap-k-negative": "496f7f7af0fab687d4272c4cf4807d12f18fb6eb56e91c4ba94ebe9043f8b7bd",
    "powermap-k0": "496f7f7af0fab687d4272c4cf4807d12f18fb6eb56e91c4ba94ebe9043f8b7bd",
    "powermap-malformed-json": "f29414c14726d5624f793e0b560f02d81eaf6d40019f7010e269797c065c057b",
    "powermap-malformed-model": "3e1015f47ac6f1c4d9a98d5a69f9daee0bf933b0ae92c42104604f2cb0090db4",
    "powermap-missing": "cd5680ba4eab1f6be7cb38ce47b2194360e116555616d4ab473936ff109db980",
    "powermap-negative-rank": "1ae662ddcc7513a3f3910e3f1c913f21f9477b75e27fa36f2c8c82dcaa9f0684",
    "powermap-no-classes": "8aa9354c5d5b9d35846086a17aeea71a0bc037bd0c328b9148327e003a949062",
    "powermap-not-utf8": "0af0229c14cf1aab89fe5d904667f769a37c836cdcfdd451f537885677ddc599",
    "powermap-order-one": "858553d3cbbfaf158ce4959a1c60d9bed8bd8d81a08b1ac336df787d4bc48d89",
    "powermap-psl2r-model-k2-json": "aa49908ba966b1b9759801f34641f6a407f083991ba835f1b1e15fb3bc78020b",
    "powermap-psl2r-model-k2-text": "2797bd3b7641b114d2d9b817c437a1e86004f6252b4e93fbe3a5c960dc5b1c62",
    "powermap-psl2r-model-k3-json": "a973226e9cf43e8e0074fdfe752413b68c2bb64adfffd2e2276c227632a6a16f",
    "powermap-psl2r-model-k3-text": "596584f33c2f5e04e7af2621c58226abef51b26676d55b718a61421605adaee1",
    "powermap-se2-model-k2-json": "effc298fc80f40cd18c2001b1d73d3000548f57ba6ee4bc87ca026dd118e4964",
    "powermap-se2-model-k2-text": "f84dc26a763f1d792967a2c421c8dcd46d54c5bb3f4884365f36c08ed388c9ef",
    "powermap-se2-model-k3-json": "462029514c4f009193a97a44754e8900cc65ad5ec430c68f68cca5df0324cb4a",
    "powermap-se2-model-k3-text": "7aaf06e53ee62e4c3e2f1e8b45bab83ceff3b6906717485d673da4ef6e3ef2db",
    "powermap-sl2r-model-k2-json": "0969573a5b971d2225f541f335b8a959ba56e71679cf63f3e92c18b793fc26d6",
    "powermap-sl2r-model-k2-text": "ca0ba45f11606463f69960d4af2edc36099eb16426c763435285222f91fdebb8",
    "powermap-sl2r-model-k3-json": "b20d03d507c2b580812f7c9644b2dd1caddcc9467a7d4ab7f80b90b61e07b32d",
    "powermap-sl2r-model-k3-text": "582e5d296725b677567f71af9fef5af9258af21f0bba56bc18e1e9657dd10831",
    "powermap-torus2-model-k2-json": "8f69e117c25cadf322b6f4f8255d34151b42bb339f91746e691d680eb894e04b",
    "powermap-torus2-model-k2-text": "5e1eb5388a1883b6d9672dd2c6ef0e347129b1dbccb95a8fdfa496d300978188",
    "powermap-torus2-model-k3-json": "88638fa1feb8686ddbbe052303841cadd3844c5c554f403c99e7e1564abc8753",
    "powermap-torus2-model-k3-text": "4d7d1ff52bcab9d8a0285c2288703204350fd78f4e0752f7cd71c8f289977d06",
    "quotient-bad-ideal-json": "e4518f10d196cae77982e5067edcd7bd719fabbbc449542e23f20c5f8e2b78ec",
    "quotient-bad-rational": "fedf2f863ba6a152c99211ad074256355171725613aa65edb4a479d73430b228",
    "quotient-directory": "acb529370b8190d9b4d99694e6f41de0f10a08b47b0f1b0f1dbf13022a04aa2f",
    "quotient-e2-json": "9c5cb489aa6391d8d1d3d18f4a99b23095d81921444f7e8365e20a9de16a5d65",
    "quotient-e2-text": "a0491090a57c1b01b5b8997f80f17fa2d101cc042a907f38fc9d08add716142f",
    "quotient-ideal-not-a-list": "58084be27678f765053ee9e7726998afe0dfe6e10458409f8983047f4dacce93",
    "quotient-jacobi-broken": "e806bdd654342efcf03449ed51c83154a66ab242d9cd91e6abb615ee98919d7a",
    "quotient-malformed-json": "f29414c14726d5624f793e0b560f02d81eaf6d40019f7010e269797c065c057b",
    "quotient-missing": "cd5680ba4eab1f6be7cb38ce47b2194360e116555616d4ab473936ff109db980",
    "quotient-not-an-ideal": "86e4b6b63881d4c4985019062fc953b53f17091ebe689916b6d9988bbe0eeddd",
    "quotient-not-utf8": "0af0229c14cf1aab89fe5d904667f769a37c836cdcfdd451f537885677ddc599",
    "quotient-sl2-json": "e14520b91397546446fb881bb8db43fecb2da931c7ee12768109aea638e996e2",
    "quotient-sl2-text": "459a493dae410c0a0f506f25c37a572ce8037213f477b140003c69299d1e13f3",
    "quotient-sl2xR2-json": "f4a9a9462c6306cfda8d8b7acbb568c04b9b34886dce199a2d1faa84c722be02",
    "quotient-sl2xR2-text": "0d8a69d0500e73aa1a442a1be273183c29fc38248f4089b93fa09e1ad9882371",
    "quotient-sl2xheis-json": "09b801dd30708649ebe25a6f3725e003053c2305b3172d87d31b482bbe293b8d",
    "quotient-sl2xheis-text": "23aa39121280c182ae3f5e4a963096804bc97d8def8e3b4d7cab7e395019d83e",
    "quotient-wrong-length-vector": "2b6ea37000c57f3a9815a5a19d40a23df91ce66a21db4f8498e207c4a8b9dc53",
    "verify-all-with-path": "0ce52f45168107743c886cad70cd909c71350501b2afbd82c6f3b2b5f8439b74",
    "verify-directory": "acb529370b8190d9b4d99694e6f41de0f10a08b47b0f1b0f1dbf13022a04aa2f",
    "verify-e2-json": "27bd062cd8c055995c4d63795a6c95676788f9fb65079a0feb605672c83a4d00",
    "verify-e2-text": "c356f85319eb512cc3472eab82143963a8537bda5246e8b03b44b0618ef311c8",
    "verify-jacobi-broken": "537f5775210f2653f0e051a46422ddec8798e51416e30ac8e5b474079dcc782b",
    "verify-jacobi-broken-json": "b6c219bbc4db42a7ca7eb9034a6f8ef60d1d9ff65e6fc9569efa31d679d31025",
    "verify-malformed-json": "f29414c14726d5624f793e0b560f02d81eaf6d40019f7010e269797c065c057b",
    "verify-missing": "cd5680ba4eab1f6be7cb38ce47b2194360e116555616d4ab473936ff109db980",
    "verify-no-paths": "238efe2dd0a074abf8a87141df4b872eedec43ddeb6a1c8e4cffbdf536a37d36",
    "verify-not-utf8": "0af0229c14cf1aab89fe5d904667f769a37c836cdcfdd451f537885677ddc599",
    "verify-sl2-json": "d806fabd727331470e13782f105b41fff3a28f0482e735ffd76084f272e49eb9",
    "verify-sl2-text": "561e9b3043ad6a01deac0fd03667c912afbd5d9b39b76bcc61afe82f936e7f3e",
    "verify-sl2xR2-json": "7afa310a0703f6bb129207bd592e6cd6f49d96c6ecf7487ac9e239ab4868caa6",
    "verify-sl2xR2-text": "ab28f02095bb281d1a3c110be73dbe06ec6d41a3528ad3830728fa708a166044",
    "verify-sl2xheis-json": "db79bb4bbc6c7b44b8fe08c808fd6968fe2f54241efc3d5937213fbecd1bf43e",
    "verify-sl2xheis-text": "f77b62032371959c65bddaa563a6c93843cca9b552aaad4a694690a735a9818f",
}


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    for path in [*bundled_fixtures().values(), *bundled_models().values()]:
        shutil.copy(path, tmp_path / path.name)
    for name, data in FILES.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "adir").mkdir()
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_case(case, monkeypatch):
    if case == INJECTED:
        def broken(g):
            raise InternalInconsistency("injected")

        monkeypatch.setattr(cli, "regular_element_csa", broken)
    return CliRunner().invoke(main, CASES[case])


def transcript_digest(result) -> str:
    text = json.dumps([result.exit_code, result.stdout, result.stderr])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_transcript(case, workdir, monkeypatch):
    result = run_case(case, monkeypatch)
    assert transcript_digest(result) == EXPECTED[case], (result.exit_code, result.stdout, result.stderr)


def test_every_case_has_a_digest():
    assert set(EXPECTED) == set(CASES)
