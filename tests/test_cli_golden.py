"""Byte-exact CLI output: the SHA-256 of stdout and the exit code of every
subcommand in every format at small primes, pinned so that refactors of
the front end cannot change what it prints."""

import hashlib

import pytest

from eigensplit import cli

CASES = (
    ("teich", "--prime", "5"),
    ("units", "--prime", "5"),
    ("units", "--prime", "5", "--unit", "lang", "--lambda", "2"),
    ("kummer", "--prime", "7"),
    ("kummer", "--prime", "7", "--unit", "lang", "--lambda", "2"),
    ("lvalues", "--prime", "5", "--char", "2", "--at", "-1"),
    ("lvalues", "--prime", "7", "--char", "4", "--at", "3"),
    ("irregular", "--prime", "37"),
    ("homotopy", "J", "--prime", "5", "--from", "-8", "--to", "8"),
    ("homotopy", "J", "--prime", "5", "--from", "-2", "--to", "9", "--dense"),
    ("homotopy", "TCZ", "--prime", "5", "--from", "-4", "--to", "12"),
    ("duality", "--prime", "5", "--from", "-8", "--to", "16"),
    ("les", "--prime", "5", "--char", "2", "--from", "-2", "--to", "20"),
    ("homotopy", "J", "--prime", "5", "--from", "-41", "--to", "40"),
    ("units", "--prime", "5", "--unit", "lang"),
    ("irregular", "--prime", "233"),
    ("irregular", "--prime", "691"),
    ("units", "--prime", "3", "--precision", "10", "--pi-precision", "20"),
    ("kummer", "--prime", "5", "--precision", "8", "--pi-precision", "30"),
    ("units", "--prime", "13"),
    ("units", "--prime", "11", "--unit", "lang", "--lambda", "2"),
    ("units", "--prime", "5", "--unit", "lang", "--lambda", "-1"),
    ("kummer", "--prime", "7", "--unit", "lang", "--lambda", "-1"),
    # irregular primes: the L-value torsion at (37, 32) and (101, 68)
    ("duality", "--prime", "37", "--from", "-60", "--to", "60",
     "--kv-assume"),
    ("homotopy", "KZ", "--prime", "37", "--from", "-60", "--to", "60",
     "--kv-assume"),
    ("les", "--prime", "37", "--char", "5", "--from", "-40", "--to", "80",
     "--kv-assume"),
    ("duality", "--prime", "101", "--from", "-200", "--to", "180",
     "--kv-assume"),
    # the whole phi table from one logarithm, at the benchmark's primes
    ("kummer", "--prime", "13"),
    ("kummer", "--prime", "23"),
    ("kummer", "--prime", "11", "--unit", "lang", "--lambda", "3"),
    # level-1 tower points of degree 272 and 342, evaluated in blocks
    ("units", "--prime", "17"),
    ("units", "--prime", "19"),
    # one p-adic digit, served at the default pi window min(p + 3, p - 1)
    ("kummer", "--prime", "7", "--precision", "1"),
    ("units", "--prime", "5", "--precision", "1", "--unit", "lang",
     "--lambda", "2"),
    # level 0 with (p-1) N > p^2 + 1: theta to the storage depth d N
    ("units", "--prime", "3", "--precision", "6"),
    ("units", "--prime", "3", "--precision", "10"),
    ("units", "--prime", "5", "--precision", "7"),
)

FORMATS = ("json", "csv", "text")

GOLDEN = {
    "teich --prime 5 --format json":
        (0, "43467a6927418f4e76ff9aff8df2348e05e3b9d1cb94ebd804dae883118df3e6"),
    "teich --prime 5 --format csv":
        (0, "a9fb57ea54acec792d2a695770a70b895bd1636fb1f78f8ac43ecc39608cdf26"),
    "teich --prime 5 --format text":
        (0, "ee25e3c443f12d3356fb494bd2eda51d80173147473d26bf399e43e37cdacd90"),
    "units --prime 5 --format json":
        (0, "e8875b7b0b13127f37d53a51e9d487beb257a1e248c25e7cddd8937b6dbf1441"),
    "units --prime 5 --format csv":
        (0, "ef6129f29d93c91ce48a2a9a68487f026bfcb81026fb91f56e8fe378817c86e4"),
    "units --prime 5 --format text":
        (0, "715b46ef01f9e54b9e1dd7975e28141a2a2ddc2b3e9e94ecec65d1e57908b742"),
    "units --prime 5 --unit lang --lambda 2 --format json":
        (0, "f56e71228992c2c804c884e17bae1c83603c3914d4656d396367a5cb5b75b059"),
    "units --prime 5 --unit lang --lambda 2 --format csv":
        (0, "28729ebed9ae1181a507a7952cc023c42ee6ca606dd0f63cd28ab2ca32611448"),
    "units --prime 5 --unit lang --lambda 2 --format text":
        (0, "9e4d7de4b555bb9bb253f1ed03f63cdfc4c011dd791e811fdeff2911d9fe276c"),
    "kummer --prime 7 --format json":
        (0, "afcd8ef6e600a4453e829c7587e6ae3720ed60a773b11ffbae0d50718070ca54"),
    "kummer --prime 7 --format csv":
        (0, "46ba137546bbe8cfa84575d027a1503634cc9d676978d3abaa518e73397fabf1"),
    "kummer --prime 7 --format text":
        (0, "55f715fb4b4ff59fb7285563e71a63ae9a3d65fafbd1c19feb6786cd65da589e"),
    "kummer --prime 7 --unit lang --lambda 2 --format json":
        (0, "86546ebd6fe11708a0ded7d3ad644e8dbf8f33926f9a223050508d67b4b7c738"),
    "kummer --prime 7 --unit lang --lambda 2 --format csv":
        (0, "874ac4d2314cdd22bb1bacfd8602f24d7981e778c471b8fabf5d32e571545b45"),
    "kummer --prime 7 --unit lang --lambda 2 --format text":
        (0, "01869fd8d14830e0206b6f70c8ed0af81e7cf1f1dd342deb788b7613afd202ae"),
    "lvalues --prime 5 --char 2 --at -1 --format json":
        (0, "48a364c6e4b5ca2bdade539a91bd0e9287bcee58d1ad081ddc172034eab7cd9a"),
    "lvalues --prime 5 --char 2 --at -1 --format csv":
        (0, "ff2d41d8c42ea3f5b668beabdfc97f353290e4675a6860fb6da856bf2dbea659"),
    "lvalues --prime 5 --char 2 --at -1 --format text":
        (0, "09e316deffecb6565597a023f952b4d4ef17bc4d6c43216baccb09a977fd7cd5"),
    "lvalues --prime 7 --char 4 --at 3 --format json":
        (0, "c8b050a3e351cba63e1dc237b1dddff26281a78c7ff30929d68a90003d7d890c"),
    "lvalues --prime 7 --char 4 --at 3 --format csv":
        (0, "e7633e5c62b4eda61531ad998bf182091b4996be4218f47522a52479fa53fa10"),
    "lvalues --prime 7 --char 4 --at 3 --format text":
        (0, "671df410d1c0c665f66f7370debf40440d0160d47a4b574fba48042f35821a9a"),
    "irregular --prime 37 --format json":
        (0, "e1bfebd3c5f482a2ad9e6f5ea5c229561f303eb5719a42e2d9fb7d2a6ad14347"),
    "irregular --prime 37 --format csv":
        (0, "02a57da24f2293784406dad6763faf099f43e3b54c292d1073dd2127200d7abb"),
    "irregular --prime 37 --format text":
        (0, "69d679ed3609d38334b63ad56383e51539221f557db438dc4e7a800e1f2d8987"),
    "homotopy J --prime 5 --from -8 --to 8 --format json":
        (0, "6f42e592ddaacdb28cf42f019179b592ae89e0271738db2a73979af14a79c3bd"),
    "homotopy J --prime 5 --from -8 --to 8 --format csv":
        (0, "d04eb63184cd190b04a4a726cedb6267dd82d1e1c6028899edd5985ed7ac35a3"),
    "homotopy J --prime 5 --from -8 --to 8 --format text":
        (0, "b9fb351d3c045d59217d30aa3049746678d8fed3daa2236dffb63c55698ca65c"),
    "homotopy J --prime 5 --from -2 --to 9 --dense --format json":
        (0, "707f68ca3be5f5e85cea1f9c41810f60be016c9b7108d347a9878a2bf7b520a9"),
    "homotopy J --prime 5 --from -2 --to 9 --dense --format csv":
        (0, "0919f34c22094610bc3b0c3471a0a8c8623b4829d2f1f97559c335bf2500f3ec"),
    "homotopy J --prime 5 --from -2 --to 9 --dense --format text":
        (0, "91f5db62c2c3c183032123f1f607359796f19ab500f916800047de3d68bfdb1d"),
    "homotopy TCZ --prime 5 --from -4 --to 12 --format json":
        (0, "0be3225a1ac67534a6c778b38d4277830163583bfaa4107f3444dde24ad6e1ef"),
    "homotopy TCZ --prime 5 --from -4 --to 12 --format csv":
        (0, "e4b0a0fe4104a7fab4b53406dab053940b8cf46ed619f58c268641343f79db3e"),
    "homotopy TCZ --prime 5 --from -4 --to 12 --format text":
        (0, "0a29eb5aded963e69d09100b44a2b6f1029a8eca904390e6f048693f860aa3bf"),
    "duality --prime 5 --from -8 --to 16 --format json":
        (0, "3d88bccfc4dd797e975fb8be12a2e2597ea685a6f6bc84a4970d871a8e226257"),
    "duality --prime 5 --from -8 --to 16 --format csv":
        (0, "ae89d4e49fa25cac94d5cae750243c57fd3f2b0d40db549d8fe87ecaa061b6dc"),
    "duality --prime 5 --from -8 --to 16 --format text":
        (0, "4f24df582087d2f1fe137359e1161f2ff75337b50c0e564d08b4bc511e15baa6"),
    "les --prime 5 --char 2 --from -2 --to 20 --format json":
        (0, "b23b9fffeab7f942353155f80f4bf34b4e275bae6baec60075f078b98069e7b8"),
    "les --prime 5 --char 2 --from -2 --to 20 --format csv":
        (0, "a379b7de3ff2dbbefe51e20634d393e9d62bf32078d537b5f12dc4c51c5ecb5d"),
    "les --prime 5 --char 2 --from -2 --to 20 --format text":
        (0, "15670a668a4c943a20c4658403425fc57b4f1bb6072825a24e80f2390f8ce5bc"),
    "homotopy J --prime 5 --from -41 --to 40 --format json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "homotopy J --prime 5 --from -41 --to 40 --format csv":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "homotopy J --prime 5 --from -41 --to 40 --format text":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "units --prime 5 --unit lang --format json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "units --prime 5 --unit lang --format csv":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "units --prime 5 --unit lang --format text":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "irregular --prime 233 --format json":
        (0, "1ecb97af8e627ab0e94836c419ee86bbdfe79399de6ec3572cd7e820fb48ef18"),
    "irregular --prime 233 --format csv":
        (0, "27c85801a538196a014a9478fce695d0f7130880e45f08422901d263a863bdf3"),
    "irregular --prime 233 --format text":
        (0, "129403d54b7508c86d31deb1e62cf29bece6a0bc1033d9b8732cd982948cb70b"),
    "irregular --prime 691 --format json":
        (0, "a18b15e92e4f92b0e3ff4eed6cd4ba0b5f9d4292c6e704e391574e5d71982aa1"),
    "irregular --prime 691 --format csv":
        (0, "6aa210704c7654547e62a7f46863a27db13d7982137716583afc415898918e0f"),
    "irregular --prime 691 --format text":
        (0, "0defe283518388e7006ad000c8973f5ef927403ba5c86beca9245a891c34e51c"),
    "units --prime 3 --precision 10 --pi-precision 20 --format json":
        (0, "bb4f44253487a6dc0df8f4242d5884ed9ac31da14aff0e8f8c05af664ca44c97"),
    "units --prime 3 --precision 10 --pi-precision 20 --format csv":
        (0, "5b4e6e295778b852cd8e1447639b43e90929dbfde3dc29ad732c8d309cca802a"),
    "units --prime 3 --precision 10 --pi-precision 20 --format text":
        (0, "629cf9e6b9bce64887b76f3993a9494cdfe037169bb34b0291bc7e2aacc565ee"),
    "kummer --prime 5 --precision 8 --pi-precision 30 --format json":
        (0, "b18284676d50637e5fae2dfa91f309a1ddea51e452193212747182071d8246b4"),
    "kummer --prime 5 --precision 8 --pi-precision 30 --format csv":
        (0, "5979bd3bc1ebb5af64636354567baa463cf2d606d096a62a6426c84b43237f4c"),
    "kummer --prime 5 --precision 8 --pi-precision 30 --format text":
        (0, "7a10295a4b78305833d9f9d83d1efea2cf4f0590dce8ecf42ca17b58b119512c"),
    "units --prime 13 --format json":
        (0, "e2b7ba4cb8b350dbaf7608f5b10c66af3a038a6210d07801f9187e6cf8584609"),
    "units --prime 13 --format csv":
        (0, "2a4e63e2793f43e4905204ea7bf3733c78fcfa26e9013f85d4204c2cd987376d"),
    "units --prime 13 --format text":
        (0, "d8b159034cc58caf3cff4288731e79a2e784af2aef05485533ca038224cec6d1"),
    "units --prime 11 --unit lang --lambda 2 --format json":
        (0, "c767cbeea59346b0150fb90291db9c8a5798261ef838e85d656ab28a468f51df"),
    "units --prime 11 --unit lang --lambda 2 --format csv":
        (0, "77171022dcfcec16405a1d9ce18be8c42d2b92dd88c7ca8a4b6d53e4d2c38c0b"),
    "units --prime 11 --unit lang --lambda 2 --format text":
        (0, "263994db96d3cceee3eb1c0266acb634688040d60a5e36a4e8ab6692fce3f245"),
    "units --prime 5 --unit lang --lambda -1 --format json":
        (0, "b39dbde8c6546c6daf880352ea64f1a75e6b2cdf7432c9d5396da4dcce4a8d73"),
    "units --prime 5 --unit lang --lambda -1 --format csv":
        (0, "dd16b21a0758537a0e907a263a3454119618215281d8308b11b2b622afb1b3ea"),
    "units --prime 5 --unit lang --lambda -1 --format text":
        (0, "3e6667abff57a39ff6415b174959a4f6a5368f2898f6d91c3b2efda503202be4"),
    "kummer --prime 7 --unit lang --lambda -1 --format json":
        (0, "8dd78123b5dbbc4ed27aea2c55d17f1a4ee2fb5512badf5c2f09d065874feeec"),
    "kummer --prime 7 --unit lang --lambda -1 --format csv":
        (0, "75b1d83445458a2ffb77e9ba0b2d888f40ba654b0b14e36b954970c367181a80"),
    "kummer --prime 7 --unit lang --lambda -1 --format text":
        (0, "5f998c063a5085d3f53ad014477c7c8721a4682b95f5750319b1777ca5a02f5d"),
    "duality --prime 37 --from -60 --to 60 --kv-assume --format json":
        (0, "4f668e863c709e8d255c0c79254fa7bef4094cdf0a825006fd0220f20fb2aa47"),
    "duality --prime 37 --from -60 --to 60 --kv-assume --format csv":
        (0, "cfb633113d4afcfb7b3378b1822c3e276f022f773563e523e918ed583b01a0f6"),
    "duality --prime 37 --from -60 --to 60 --kv-assume --format text":
        (0, "a06df79a9b1ba4c0b24f66fb07ab8eb826d1d6643badb51098fe86c567320cec"),
    "homotopy KZ --prime 37 --from -60 --to 60 --kv-assume --format json":
        (0, "4dc3ce5bfacd89572b8ffcf0df6c2c86174afca57ed1f350c648a5b361f44530"),
    "homotopy KZ --prime 37 --from -60 --to 60 --kv-assume --format csv":
        (0, "73e3b577692205daae627dcfb76293c705dcb81fdb6487f94b80106e0e6d450c"),
    "homotopy KZ --prime 37 --from -60 --to 60 --kv-assume --format text":
        (0, "bfed02b0fe31c637f77c3e9b6b32f90770a55f07936256430121762bb23ca6b1"),
    "les --prime 37 --char 5 --from -40 --to 80 --kv-assume --format json":
        (0, "3d32a47ae886d6f73f1456b215302af7fae6394e1bf944610bdbc447de46e16b"),
    "les --prime 37 --char 5 --from -40 --to 80 --kv-assume --format csv":
        (0, "1392f02453b82358ca0bcd72d069af7029635a90f7fc92e12f44a57b1e643a01"),
    "les --prime 37 --char 5 --from -40 --to 80 --kv-assume --format text":
        (0, "2d85d17d5eacbf85f3ae0898b7e0a454d5968986efc8ac6bbc3c1740c8e72d08"),
    "duality --prime 101 --from -200 --to 180 --kv-assume --format json":
        (0, "4a7565c7619b7ab8c79e1ac0dbe1a7e8ed1c8e7c7a5312a3e652fe934946d79e"),
    "duality --prime 101 --from -200 --to 180 --kv-assume --format csv":
        (0, "5819ec4280cacd0b72bda6f05afd2a36dc645aeedd87f7a6cabec87f3ddc529f"),
    "duality --prime 101 --from -200 --to 180 --kv-assume --format text":
        (0, "511d857c7aed0a1664075d274303ab43287ffb98292886b918e5e8bf49844c0b"),
    "kummer --prime 13 --format json":
        (0, "c4a151903697c8a8d033374017811992e662e0134195a0a6f978bec8349c9e18"),
    "kummer --prime 13 --format csv":
        (0, "d13906280e89907fea3d2629bfdb4b6c0f8fea57675ee04a7bf3fc373f4d33c3"),
    "kummer --prime 13 --format text":
        (0, "c8477d4c3561c3ddcc7709c5604aef47bf54983d20d14b27f20ef66a6993f6df"),
    "kummer --prime 23 --format json":
        (0, "699632c3cc171e85401ebe063f0cfebb32cd8cd8aba643c50e786e0cd1dc44fe"),
    "kummer --prime 23 --format csv":
        (0, "afeaef19e44cc83a789b8e3538648dbc0e5017e3bba7ecadc0bf6b05fe555f49"),
    "kummer --prime 23 --format text":
        (0, "3d2aeffc6a7d0788299ac4b5f5cdd21689bdde7b710613b3fd0de0ec5310dc12"),
    "kummer --prime 11 --unit lang --lambda 3 --format json":
        (0, "4a450e1a7bfcc03a9a4091e343f77e50ee5f2d611b21b6ec7af35e2d8d000746"),
    "kummer --prime 11 --unit lang --lambda 3 --format csv":
        (0, "2fd3608cdf6539a2928b0efee0b6fbfd1e6dcc0c04b2ce2ba3a13a63b629a575"),
    "kummer --prime 11 --unit lang --lambda 3 --format text":
        (0, "ae5ef8f6e640ed7ea34175c79b91cbe85033a06f71c159fec2fbc3f2505f9e98"),
    "units --prime 17 --format json":
        (0, "e436d6ab50b83f8a7b7e7d345131f382c2bfd364d6adc9e9f6b7f68946f9d4f4"),
    "units --prime 17 --format csv":
        (0, "a89e006001a56bc5d8ce112180b4da524cd8112b888f663984bb65f3e7f8a62a"),
    "units --prime 17 --format text":
        (0, "22760ae9378e79427955d759bb170269eb6ada77a6d7eb4c1e58925321981932"),
    "units --prime 19 --format json":
        (0, "d4c31d6cb21c82be22f8e8212eaf936488bac0d78e4d5bfd01be71f95cff2f9d"),
    "units --prime 19 --format csv":
        (0, "ed687945554a250293fb302a30c1cfd51b4fe1a1e7b0e4dfa066863886ca2215"),
    "units --prime 19 --format text":
        (0, "80298ef9da1acd163a8354caf1303228fd8035a8d0d14cab439b38ab3c8cb3b1"),
    "kummer --prime 7 --precision 1 --format json":
        (0, "afcd8ef6e600a4453e829c7587e6ae3720ed60a773b11ffbae0d50718070ca54"),
    "kummer --prime 7 --precision 1 --format csv":
        (0, "46ba137546bbe8cfa84575d027a1503634cc9d676978d3abaa518e73397fabf1"),
    "kummer --prime 7 --precision 1 --format text":
        (0, "55f715fb4b4ff59fb7285563e71a63ae9a3d65fafbd1c19feb6786cd65da589e"),
    "units --prime 5 --precision 1 --unit lang --lambda 2 --format json":
        (0, "b7bad11e777d5cc2fe2eb7a45c43df5155b826e843582280da93967b064885f6"),
    "units --prime 5 --precision 1 --unit lang --lambda 2 --format csv":
        (0, "7cd51eef404bbbcda3dc874109173f311402651b7f4fb9971de38f4575ba2dcc"),
    "units --prime 5 --precision 1 --unit lang --lambda 2 --format text":
        (0, "9b7722cec21710bbb7d54543214f85e6e5dcc0a149e89a789e7b874d69f9a76c"),
    # digits [511, 2], [2698, 2] and [17086, 31884, 43083, 50723]
    "units --prime 3 --precision 6 --format json":
        (0, "e117fa8e3eda1c805cf76fdcce5724d7fc4722c048b9223ab805ccd9b08457af"),
    "units --prime 3 --precision 6 --format csv":
        (0, "8975dd43405e21a3cfd3f28445808aeacfa0e72c278424debde7b2a359c60c84"),
    "units --prime 3 --precision 6 --format text":
        (0, "2b2c504dfd81ab86e66a72433f54453f7ba2b486e964dac2d458f738b5c4d31e"),
    "units --prime 3 --precision 10 --format json":
        (0, "bb4f44253487a6dc0df8f4242d5884ed9ac31da14aff0e8f8c05af664ca44c97"),
    "units --prime 3 --precision 10 --format csv":
        (0, "5b4e6e295778b852cd8e1447639b43e90929dbfde3dc29ad732c8d309cca802a"),
    "units --prime 3 --precision 10 --format text":
        (0, "629cf9e6b9bce64887b76f3993a9494cdfe037169bb34b0291bc7e2aacc565ee"),
    "units --prime 5 --precision 7 --format json":
        (0, "230d5a6f4503f7c93ade5a797e784cd917b4f3ebf3cb7c6ec4d3e3ac6b0bb06e"),
    "units --prime 5 --precision 7 --format csv":
        (0, "eb94872c3ee457678c58187e7fcbb9e1519529a3c684682cfbfa000bf05c2a32"),
    "units --prime 5 --precision 7 --format text":
        (0, "03561d3c1bfd95810e1104a2be39fe8badce4e2051bcce6d96fd250b9e00766e"),
}


def _digest(capsys, argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c))
def test_cli_output_is_pinned(capsys, case, fmt):
    argv = case + ("--format", fmt)
    assert _digest(capsys, argv) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c))
def test_module_run_is_pinned(python, case):
    # as users and the benchmark run it: one fresh `python -m` process,
    # which loads only the layers the subcommand itself reaches
    argv = case + ("--format", "json")
    r = python("-m", "eigensplit.cli", *argv)
    digest = hashlib.sha256(r.stdout).hexdigest()
    assert (r.returncode, digest) == GOLDEN[" ".join(argv)]
