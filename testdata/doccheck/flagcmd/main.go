// Command flagcmd plants one undocumented flag beside a documented one.
package main

import (
	"flag"
	"fmt"
)

func main() {
	documented := flag.Int("documented", 1, "mentioned in FLAGS.md")
	undocumented := flag.Int("undocumented", 2, "mentioned nowhere")
	flag.Parse()
	fmt.Println(*documented, *undocumented)
}
