package undocumented

func ExportedInATestFile() {}
